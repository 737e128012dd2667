(* Persistent worker-domain pool: spawn once, queue thunks, join once.

   Invariants, all under [m]:
   - [pending] counts submitted-but-unfinished jobs (queued + running).
   - [nonempty] is signalled per enqueued job and broadcast at stop.
   - [idle] is broadcast when [pending] reaches 0, waking a caller
     blocked in [drain].
   - [failure] keeps the first job exception; [drain] re-raises it. *)

type t = {
  m : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  q : (unit -> unit) Queue.t;
  mutable pending : int;
  mutable stop : bool;
  mutable failure : exn option;
  mutable domains : unit Domain.t list;
  nworkers : int;
}

let execute t job =
  (try job ()
   with e ->
     Mutex.lock t.m;
     if t.failure = None then t.failure <- Some e;
     Mutex.unlock t.m);
  Mutex.lock t.m;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.m

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.stop do
    Condition.wait t.nonempty t.m
  done;
  match Queue.take_opt t.q with
  | None ->
      (* stopping and nothing queued *)
      Mutex.unlock t.m
  | Some job ->
      Mutex.unlock t.m;
      execute t job;
      worker_loop t

let create ~workers =
  let nworkers = max 1 workers in
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      q = Queue.create ();
      pending = 0;
      stop = false;
      failure = None;
      domains = [];
      nworkers;
    }
  in
  t.domains <- List.init (nworkers - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let workers t = t.nworkers

let submit t job =
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  t.pending <- t.pending + 1;
  Queue.push job t.q;
  Condition.signal t.nonempty;
  Mutex.unlock t.m

(* The caller helps: run queued jobs inline until the queue is empty,
   then wait for in-flight jobs on other domains. *)
let drain t =
  let rec help () =
    Mutex.lock t.m;
    if t.pending = 0 then Mutex.unlock t.m
    else
      match Queue.take_opt t.q with
      | Some job ->
          Mutex.unlock t.m;
          execute t job;
          help ()
      | None ->
          while t.pending > 0 do
            Condition.wait t.idle t.m
          done;
          Mutex.unlock t.m
  in
  help ();
  Mutex.lock t.m;
  let f = t.failure in
  t.failure <- None;
  Mutex.unlock t.m;
  match f with Some e -> raise e | None -> ()

let run t jobs =
  Array.iter (fun job -> submit t job) jobs;
  drain t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.m;
  List.iter Domain.join ds

let with_pool ~workers f =
  let t = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
