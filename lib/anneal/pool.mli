(** Persistent worker-domain pool.

    {!Parallel} used to spawn fresh domains for every exchange slice
    and full-join them at each boundary; on short slices the
    spawn/join cost dominated the work (E17 showed multi-chain SA
    {e losing} wall-clock at 2 and 4 workers). A pool spawns
    [workers - 1] domains once, feeds them thunks through a
    mutex/condvar queue, and joins them once at {!shutdown} — jobs pay
    one queue handoff instead of a domain spawn.

    The calling domain is a full participant: {!drain} (and therefore
    {!run}) executes queued jobs on the caller until the queue is
    empty, then blocks until in-flight jobs finish. With
    [workers = 1] no domain is ever spawned and every job runs inline
    on the caller, in submission order — the sequential semantics
    fall out for free.

    Memory model: a job's closure (and everything it reads) is
    published to its executing domain through the queue mutex, and
    everything the job wrote is visible to the caller when {!drain}
    returns — the same happens-before edges a spawn/join pair gave,
    which is what {!Parallel.lockstep} relies on at logical exchange
    points.

    Exceptions raised by jobs are caught on the worker, the first one
    is kept, and {!drain} re-raises it on the caller after the queue
    settles (remaining jobs still run). *)

type t

val create : workers:int -> t
(** Spawn [max 0 (workers - 1)] worker domains. [workers] is clamped
    to at least 1. *)

val workers : t -> int
(** The clamped worker count (caller included). *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one job. Raises [Invalid_argument] after {!shutdown}. *)

val drain : t -> unit
(** Execute and await all submitted jobs: the caller runs queued jobs
    itself, then waits for jobs running on other workers. Re-raises
    the first job exception, if any. *)

val run : t -> (unit -> unit) array -> unit
(** [run t jobs] = submit all, then {!drain} — a barrier: every job
    has finished (and its effects are visible) when it returns. *)

val shutdown : t -> unit
(** Join all worker domains. Must be called with no jobs in flight
    (after a final {!drain}); idempotent. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [create], run the function, and {!shutdown} even on exceptions. *)
