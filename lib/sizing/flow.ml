type mode = Electrical_only | Layout_aware

let default_specs =
  [
    Spec.make ~name:"a0_db" ~bound:(Spec.At_least 60.0) ~unit_:"dB";
    Spec.make ~name:"gbw_mhz" ~bound:(Spec.At_least 25.0) ~unit_:"MHz";
    Spec.make ~name:"pm_deg" ~bound:(Spec.At_least 60.0) ~unit_:"deg";
    Spec.make ~name:"slew_vus" ~bound:(Spec.At_least 15.0) ~unit_:"V/us";
    Spec.make ~name:"power_mw" ~bound:(Spec.At_most 2.5) ~unit_:"mW";
    Spec.make ~name:"swing_v" ~bound:(Spec.At_least 0.9) ~unit_:"V";
    Spec.make ~name:"headroom_v" ~bound:(Spec.At_least 0.05) ~unit_:"V";
  ]

type config = {
  specs : Spec.t list;
  env : Perf.env;
  violation_weight : float;
  area_weight : float;
  aspect_weight : float;
  power_weight : float;
  sa : Anneal.Sa.params;
}

let default_config =
  {
    specs = default_specs;
    env = Perf.default_env;
    violation_weight = 100.0;
    area_weight = 2e-4;  (* per um^2: ~30k um^2 layouts -> O(10) *)
    aspect_weight = 2.0;
    power_weight = 0.5;
    sa =
      {
        Anneal.Sa.initial_temperature = Some 10.0;
        final_temperature = 1e-3;
        moves_per_round = 150;
        schedule = Anneal.Schedule.Geometric 0.92;
        frozen_rounds = 12;
        max_rounds = 140;
      };
  }

type 'd outcome = {
  mode : mode;
  design : 'd;
  layout : Template.instance;
  perf_nominal : Spec.performance;
  perf_extracted : Spec.performance;
  met_nominal : bool;
  met_extracted : bool;
  evaluations : int;
  seconds : float;
  extraction_seconds : float;
}

(* A topology plugs into the flow through these five functions. *)
type 'd driver = {
  initial : 'd;
  perturb : Prelude.Rng.t -> fold_moves:bool -> 'd -> 'd;
  evaluate : ?parasitics:Perf.parasitics -> Perf.env -> 'd -> Spec.performance;
  template : 'd -> Template.instance;
  extract : 'd -> Template.instance -> Perf.parasitics;
}

let miller_driver =
  {
    initial = Design.default;
    perturb = (fun rng ~fold_moves d -> Design.perturb rng ~fold_moves d);
    evaluate = (fun ?parasitics env d -> Perf.evaluate ?parasitics env d);
    template = Template.generate;
    extract = Extract.extract;
  }

let folded_cascode_driver =
  {
    initial = Fc_design.default;
    perturb = (fun rng ~fold_moves d -> Fc_design.perturb rng ~fold_moves d);
    evaluate = (fun ?parasitics env d -> Fc_perf.evaluate ?parasitics env d);
    template = Fc_template.generate;
    extract = Fc_extract.extract;
  }

let extraction_fraction o =
  if o.seconds <= 0.0 then 0.0 else o.extraction_seconds /. o.seconds

let power_of perf =
  Option.value (Spec.value perf "power_mw") ~default:0.0

let run_driver driver ?(config = default_config) ~rng mode =
  let t0 = Sys.time () in
  let extraction_time = ref 0.0 in
  let extracted_perf design =
    let te = Sys.time () in
    let layout = driver.template design in
    let parasitics = driver.extract design layout in
    extraction_time := !extraction_time +. (Sys.time () -. te);
    (layout, driver.evaluate ~parasitics config.env design)
  in
  let cost design =
    match mode with
    | Electrical_only ->
        let perf = driver.evaluate config.env design in
        (config.violation_weight *. Spec.total_violation config.specs perf)
        +. (config.power_weight *. power_of perf)
    | Layout_aware ->
        let layout, perf = extracted_perf design in
        (config.violation_weight *. Spec.total_violation config.specs perf)
        +. (config.power_weight *. power_of perf)
        +. (config.area_weight *. layout.Template.area_um2)
        +. (config.aspect_weight
            *. Float.abs (log (Template.aspect_ratio layout)))
  in
  let neighbor rng design =
    driver.perturb rng ~fold_moves:(mode = Layout_aware) design
  in
  let problem = Anneal.Sa.persistent ~init:driver.initial ~neighbor ~cost in
  let result = Anneal.Sa.run ~rng config.sa problem in
  let design = !(result.Anneal.Sa.best) in
  let layout, perf_extracted = extracted_perf design in
  let perf_nominal = driver.evaluate config.env design in
  {
    mode;
    design;
    layout;
    perf_nominal;
    perf_extracted;
    met_nominal = Spec.all_satisfied config.specs perf_nominal;
    met_extracted = Spec.all_satisfied config.specs perf_extracted;
    evaluations = result.Anneal.Sa.evaluated;
    seconds = Sys.time () -. t0;
    extraction_seconds = !extraction_time;
  }

let run ?config ~rng mode = run_driver miller_driver ?config ~rng mode

let run_folded_cascode ?config ~rng mode =
  run_driver folded_cascode_driver ?config ~rng mode
