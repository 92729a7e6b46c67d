(* mapper_validate: a mapping search followed by validation.  Each
   operation is one [dse] request with [search: pruned] through the
   serve codec and Api.run on a seeded small layer, then the model
   checker on the best outcome and the simulator on the best two.  This
   is the workload where dse, the analysis prechecker and capacity tier,
   and sim do the work. *)

open Common
module R = Api.Request
module Sim = Tenet.Sim.Simulator

type slot = { kernel : string; archs : string array; ranges : (int * int) list }

let tpu = "tpu-8x8-systolic"
let mesh = "mesh-8x8"
let shi = "shidiannao-8x8"

(* One search per slot and round, each ~100 ms on the reference host.
   Every slot has at least 108 distinct requests, about twice what a
   20 s run draws from one slot on a fast host, so fresh draws never
   run out. *)
let slots =
  [|
    { kernel = "gemm"; archs = [| tpu |]; ranges = List.init 3 (fun _ -> (18, 22)) };
    { kernel = "gemm"; archs = [| mesh |]; ranges = List.init 3 (fun _ -> (18, 22)) };
    { kernel = "mttkrp"; archs = [| tpu; mesh; shi |]; ranges = List.init 4 (fun _ -> (7, 9)) };
    { kernel = "mmc"; archs = [| tpu; mesh; shi |]; ranges = List.init 4 (fun _ -> (7, 9)) };
    { kernel = "conv"; archs = [| tpu; mesh; shi |]; ranges = [ (4, 5); (4, 5); (4, 6); (4, 6); (3, 3); (3, 3) ] };
  |]

let simulated = 2

let draw st (s : slot) ~id : R.t =
  {
    (R.default R.Dse) with
    R.id;
    kernel = s.kernel;
    sizes = List.map (fun (lo, hi) -> between st lo hi) s.ranges;
    arch = pick st s.archs;
    search = `Pruned;
    top = 4;
  }

type answer = {
  req : R.t;
  traced : bool;
  candidates : int;
  outcomes : Api.Response.dse_outcome list;
  diags : Tenet.Analysis.Diagnostic.t list;
  sims : Sim.result list;
}

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let validate (r : R.t) (resp : Api.Response.t) : answer option =
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Dse_result { candidates; outcomes = best :: _ as outcomes; _ }) ->
      let op = Api.op_of r and spec = Api.arch_of r in
      let diags =
        Spans.with_ "analysis.Checker.check" (fun () ->
            Tenet.Analysis.Checker.check spec op best.Api.Response.o_dataflow)
      in
      let sims =
        List.map
          (fun o ->
            Spans.with_ "sim.Simulator.run" (fun () -> Sim.run spec op o.Api.Response.o_dataflow))
          (take simulated outcomes)
      in
      Some { req = r; traced = !Spans.on; candidates; outcomes; diags; sims }
  | _ -> None

let check (a : answer) =
  let id = a.req.R.id in
  let lat (o : Api.Response.dse_outcome) = o.Api.Response.o_metrics.Metrics.latency in
  let best = List.hd a.outcomes in
  List.iter
    (fun o -> if lat o < lat best then fail "%s: an outcome scores better than the best" id)
    a.outcomes;
  if Tenet.Analysis.Diagnostic.errors a.diags <> [] then
    fail "%s: the model checker rejects the best mapping" id;
  List.iter2
    (fun (o : Api.Response.dse_outcome) (s : Sim.result) ->
      let m = o.Api.Response.o_metrics in
      if s.Sim.busy_pe_cycles <> m.Metrics.n_instances then
        fail "%s: simulated busy PE cycles %d <> n_instances %d" id s.Sim.busy_pe_cycles
          m.Metrics.n_instances;
      if s.Sim.cycles < m.Metrics.delay_compute then
        fail "%s: simulated cycles %d < delay_compute %d" id s.Sim.cycles m.Metrics.delay_compute)
    (take simulated a.outcomes) a.sims

let metrics_json m = Json.to_string (Metrics.to_json m)

(* The best outcome's metrics equal a fresh concrete analysis, and the
   exhaustive search finds the same best. *)
let check_deep ~exhaustive (a : answer) =
  let r = a.req in
  let op = Api.op_of r and spec = Api.arch_of r in
  let best = List.hd a.outcomes in
  let fresh = Tenet.Model.Concrete.analyze spec op best.Api.Response.o_dataflow in
  if metrics_json fresh <> metrics_json best.Api.Response.o_metrics then
    fail "%s: best metrics differ from a fresh concrete analysis" r.R.id;
  if exhaustive then
    match (Api.run { r with R.search = `Exhaustive; id = r.R.id ^ "x" }).Api.Response.body.Api.Response.payload with
    | Some (Api.Response.Dse_result { outcomes = ex :: _; _ }) ->
        if
          metrics_json ex.Api.Response.o_metrics <> metrics_json best.Api.Response.o_metrics
          || ex.Api.Response.o_dataflow.Tenet.Dataflow.Dataflow.name
             <> best.Api.Response.o_dataflow.Tenet.Dataflow.Dataflow.name
        then fail "%s: pruned best differs from the exhaustive best" r.R.id
    | _ -> fail "%s: exhaustive search returned no outcome" r.R.id

let run (a : args) : outcome =
  Tenet.Util.Parallel.set_jobs 1;
  let seen = Hashtbl.create 1024 in
  let n = ref 0 in
  let round st prefix () =
    Array.map
      (fun s ->
        incr n;
        let r = draw_fresh seen (fun () -> draw st s ~id:(Printf.sprintf "%s%d" prefix !n)) in
        (r, request_line r))
      slots
  in
  let answers = ref [] in
  let exec (r, line) =
    let resp, _ = serve_line line in
    match validate r resp with
    | Some ans ->
        answers := ans :: !answers;
        true
    | None -> false
  in
  if a.trace then Telemetry.start ();
  let warm = setup_rng () in
  let setup_s =
    setup_median ~reps:3 (fun () -> Array.iter (fun op -> ignore (exec op)) (round warm "w" ()))
  in
  answers := [];
  let loop = closed_loop a ~round:(round (rng a 2) "m") ~exec in
  let peak_rss_mb = peak_rss_mb_self () in
  let correct =
    checks_pass a @@ fun () ->
    List.iter check !answers;
    let st = rng a 3 in
    let all = Array.of_list !answers in
    for i = 1 to 6 do
      check_deep ~exhaustive:(i <= 3) (pick st all)
    done
  in
  let traced_ops = loop.traced_ms.Samples.len in
  let layer =
    if not a.trace then []
    else begin
      write_trace a;
      let delta = Telemetry.count in
      let per_search name = ratio_i (delta name) traced_ops in
      let generated =
        List.fold_left (fun acc ans -> if ans.traced then acc + ans.candidates else acc) 0 !answers
      in
      let sim_s = Spans.total_s "sim.Simulator.run" in
      in_process_layer ~traced_ops
      @ [
          ("dse.search_ms", 1e3 *. ratio (Telemetry.total_of "dse.search") (float_of_int (Telemetry.calls_of "dse.search")));
          ("dse.evaluated_ratio", ratio_i (delta "dse.candidates_evaluated") generated);
          ("dse.pruned_precheck", per_search "dse.pruned_precheck");
          ("dse.pruned_symmetry", per_search "dse.pruned_symmetry");
          ("dse.pruned_dominated", per_search "dse.pruned_dominated");
          ("dse.pruned_capacity", per_search "dse.pruned_capacity");
          ("sim.run_ms", 1e3 *. Spans.mean_s "sim.Simulator.run");
          ("sim.ns_per_stamp", 1e9 *. ratio sim_s (float_of_int (delta "sim.stamps")));
          ("sim.stamps_per_op", per_search "sim.stamps");
          ("obs.tracing_overhead", tracing_overhead loop);
        ]
    end
  in
  { correct; attempted = loop.attempted; failed = loop.failed; setup_s; loop; peak_rss_mb; layer }
