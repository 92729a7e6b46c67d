(* Shared machinery of the benchmark workloads: arguments, seeded
   inputs, the closed loop, latency statistics, the benchmark's own
   spans, the roll-up of the program's Obs counters and spans, and the
   result line. *)

module Api = Tenet.Serve.Api
module Json = Tenet.Obs.Json
module Obs = Tenet.Obs
module Metrics = Tenet.Model.Metrics

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tenet : string;  (** the built [tenet] binary (serve_fleet only) *)
  out_dir : string;  (** where traced runs write their span dumps *)
}

let now = Unix.gettimeofday

(* A run keeps going past [--seconds] only until it has this many timed
   operations, so that p90 has ten samples beyond it. *)
let min_ops = 100

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile (xs : float array) (q : float) : float =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5
let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* A growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* ------------------------------------------------------------------ *)
(* Seeded inputs.                                                      *)
(* ------------------------------------------------------------------ *)

(* One stream per (seed, purpose) so that, say, the check sample does
   not shift when the timed part draws more requests. *)
let rng (a : args) (purpose : int) = Random.State.make [| a.seed; purpose |]

(* Set-up draws its inputs from a fixed stream, so that set-up does the
   same work on every run and [setup_s] varies only with the host. *)
let setup_rng () = Random.State.make [| 0; 1 |]
let pick st (arr : 'a array) = arr.(Random.State.int st (Array.length arr))
let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* Draws until the request's fingerprint is not in [seen], so every
   request of a run has its own fingerprint and the result cache never
   answers it. *)
let draw_fresh (seen : (Digest.t, unit) Hashtbl.t) (draw : unit -> Api.Request.t)
    : Api.Request.t =
  let rec go tries =
    let r = draw () in
    let key = Digest.string (Api.Request.fingerprint r) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      r
    end
    else if tries < 10_000 then go (tries + 1)
    else failwith "perfbench: no fresh request left in the input ranges"
  in
  go 0

let request_line (r : Api.Request.t) : string =
  Json.to_string (Api.Request.to_json r)

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans, recorded around each call into a layer   *)
(* during traced operations only, kept in memory and written at exit.  *)
(* ------------------------------------------------------------------ *)

module Spans = struct
  type span = {
    name : string;
    op : int;  (** the operation it belongs to *)
    parent : string;
    start : float;
    dur : float;
  }

  let on = ref false
  let op_id = ref (-1)
  let stack : string list ref = ref []
  let recorded : span list ref = ref []
  let totals : (string, float * int) Hashtbl.t = Hashtbl.create 16

  let with_ name f =
    if not !on then f ()
    else begin
      let parent = match !stack with p :: _ -> p | [] -> "" in
      stack := name :: !stack;
      let t0 = now () in
      let finish () =
        let dur = now () -. t0 in
        stack := List.tl !stack;
        recorded := { name; op = !op_id; parent; start = t0; dur } :: !recorded;
        let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt totals name) in
        Hashtbl.replace totals name (s +. dur, n + 1)
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  (* Mean seconds per span of [name], 0 when none was recorded. *)
  let mean_s name =
    match Hashtbl.find_opt totals name with
    | Some (s, n) when n > 0 -> s /. float_of_int n
    | _ -> 0.

  let total_s name =
    match Hashtbl.find_opt totals name with Some (s, _) -> s | None -> 0.

  let to_json () : Json.t =
    let t_min =
      List.fold_left (fun m s -> Float.min m s.start) infinity !recorded
    in
    Json.List
      (List.rev_map
         (fun s ->
           Json.Obj
             [
               ("name", Json.String s.name);
               ("op", Json.Int s.op);
               ("parent", Json.String s.parent);
               ("start_s", Json.Float (s.start -. t_min));
               ("dur_s", Json.Float s.dur);
             ])
         !recorded)
end

(* ------------------------------------------------------------------ *)
(* The program's own telemetry, rolled up per traced operation.        *)
(* ------------------------------------------------------------------ *)

module Telemetry = struct
  (* Counter totals and self time per span name, summed over every
     drained operation. *)
  let acc : (string, int) Hashtbl.t = Hashtbl.create 64
  let self_s : (string, float) Hashtbl.t = Hashtbl.create 32
  let total_s : (string, float) Hashtbl.t = Hashtbl.create 32
  let calls : (string, int) Hashtbl.t = Hashtbl.create 32
  let dropped = ref 0

  (* The live value of a program counter (used around set-up phases). *)
  let live name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

  (* A counter's total over the drained operations. *)
  let count name = Option.value ~default:0 (Hashtbl.find_opt acc name)

  let start () =
    Obs.set_span_capacity (1 lsl 16);
    Obs.enable ()

  let bump tbl name v = Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

  (* Fold the operation's counters and spans into the totals, then reset
     the program's telemetry for the next one (reset keeps the span ring
     allocated, so the next operation pays nothing for it).

     A span's self time is its duration minus the part its direct
     children cover.  The pool runs one job, so all spans of an
     operation nest on one domain: sorted by start (parents first on a
     tie), a span's parent is the latest span one level up. *)
  let drain () =
    List.iter
      (fun (k, v) -> if v <> 0 then Hashtbl.replace acc k (v + count k))
      (Obs.counters ());
    let sps = Array.of_list (Obs.spans ()) in
    dropped := !dropped + Obs.spans_dropped ();
    Obs.reset ();
    Array.sort
      (fun (a : Obs.span) (b : Obs.span) ->
        match Float.compare a.Obs.sp_start b.Obs.sp_start with
        | 0 -> compare a.Obs.sp_depth b.Obs.sp_depth
        | c -> c)
      sps;
    let child = Array.make (Array.length sps) 0. in
    let last_at = Hashtbl.create 8 in
    Array.iteri
      (fun i (sp : Obs.span) ->
        (match Hashtbl.find_opt last_at (sp.Obs.sp_depth - 1) with
        | Some p when sp.Obs.sp_depth > 0 -> child.(p) <- child.(p) +. sp.Obs.sp_dur
        | _ -> ());
        Hashtbl.replace last_at sp.Obs.sp_depth i)
      sps;
    Array.iteri
      (fun i (sp : Obs.span) ->
        let name = sp.Obs.sp_name in
        bump self_s name (sp.Obs.sp_dur -. child.(i));
        bump total_s name sp.Obs.sp_dur;
        Hashtbl.replace calls name (1 + Option.value ~default:0 (Hashtbl.find_opt calls name)))
      sps

  let self_of (pred : string -> bool) =
    Hashtbl.fold (fun k v acc -> if pred k then acc +. v else acc) self_s 0.

  let total_of name = Option.value ~default:0. (Hashtbl.find_opt total_s name)
  let calls_of name = Option.value ~default:0 (Hashtbl.find_opt calls name)
end

(* ------------------------------------------------------------------ *)
(* The closed loop.                                                    *)
(* ------------------------------------------------------------------ *)

type loop = {
  lat_ms : Samples.t;  (** untraced operations *)
  traced_ms : Samples.t;  (** traced operations (trace mode only) *)
  mutable attempted : int;
  mutable failed : int;
  mutable wall_s : float;  (** untraced operations' wall clock *)
  mutable traced_wall_s : float;
}

let new_loop () =
  {
    lat_ms = Samples.create ();
    traced_ms = Samples.create ();
    attempted = 0;
    failed = 0;
    wall_s = 0.;
    traced_wall_s = 0.;
  }

(* One caller, one request at a time.  Rounds of the same make-up run
   until [seconds] have passed (and at least [min_ops] operations ran);
   a round is never cut, so [failed] is the same share of [attempted]
   in every run.  In trace mode operations alternate between untraced
   and traced: the traced half enables the program's telemetry and the
   benchmark's spans and is drained after each operation, outside the
   timed region. *)
let closed_loop (a : args) ~(round : unit -> 'op array)
    ~(exec : 'op -> bool) : loop =
  let l = new_loop () in
  if a.trace then begin
    Obs.reset ();
    Obs.disable ()
  end;
  let t_start = now () in
  let ops = ref 0 in
  while now () -. t_start < a.seconds || !ops < min_ops do
    let ops_of_round = round () in
    Array.iter
      (fun op ->
        let traced = a.trace && !ops land 1 = 1 in
        if traced then begin
          Spans.on := true;
          Spans.op_id := !ops;
          Obs.enable ()
        end;
        let t0 = now () in
        let ok = exec op in
        let dt = now () -. t0 in
        if traced then begin
          Obs.disable ();
          Spans.on := false;
          Telemetry.drain ();
          Samples.add l.traced_ms (dt *. 1e3);
          l.traced_wall_s <- l.traced_wall_s +. dt
        end
        else begin
          Samples.add l.lat_ms (dt *. 1e3);
          l.wall_s <- l.wall_s +. dt
        end;
        l.attempted <- l.attempted + 1;
        if not ok then l.failed <- l.failed + 1;
        incr ops)
      ops_of_round
  done;
  l

(* ------------------------------------------------------------------ *)
(* One request through the serve codec and Api.run, as a server would  *)
(* handle it: parse and decode the line, run, encode the answer.       *)
(* ------------------------------------------------------------------ *)

let serve_line (line : string) : Api.Response.t * string =
  let req =
    Spans.with_ "serve.decode" (fun () -> Api.decode (Json.parse line))
  in
  let resp =
    match req with
    | Ok r -> Spans.with_ "serve.execute" (fun () -> Api.run r)
    | Error resp -> resp
  in
  let out =
    Spans.with_ "serve.encode" (fun () ->
        Json.to_string (Api.Response.to_json resp))
  in
  (resp, out)

let is_ok (resp : Api.Response.t) = resp.Api.Response.body.Api.Response.status = `Ok

(* ------------------------------------------------------------------ *)
(* Output checks shared by analyze_cold and serve_fleet.               *)
(* ------------------------------------------------------------------ *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Run a workload's checks; a failure is reported on stderr. *)
let checks_pass (a : args) (f : unit -> unit) : bool =
  match f () with
  | () -> true
  | exception Check_failed msg ->
      prerr_endline (a.workload ^ ": check failed: " ^ msg);
      false

(* The instance count the benchmark expects, from the request's own
   extents (jacobi2d iterates the interior 1..n-2 in both dims). *)
let expected_instances (r : Api.Request.t) : int =
  match (r.Api.Request.kernel, r.Api.Request.sizes) with
  | "jacobi2d", [ n ] -> (n - 2) * (n - 2)
  | _, sizes -> List.fold_left ( * ) 1 sizes

let check_volumes ~what (v : Metrics.volumes) =
  if v.Metrics.total <> v.Metrics.temporal_reuse + v.Metrics.spatial_reuse + v.Metrics.unique
  then
    fail "%s: total %d <> temporal %d + spatial %d + unique %d" what
      v.Metrics.total v.Metrics.temporal_reuse v.Metrics.spatial_reuse
      v.Metrics.unique

(* Properties every analyze/volumes answer must have. *)
let check_answer (r : Api.Request.t) (resp : Api.Response.t) =
  let id = r.Api.Request.id in
  if not (is_ok resp) then fail "%s: status %s" id
      (Api.Response.status_to_string resp.Api.Response.body.Api.Response.status);
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Metrics { metrics = m; _ }) ->
      if m.Metrics.n_instances <> expected_instances r then
        fail "%s: n_instances %d, expected %d" id m.Metrics.n_instances
          (expected_instances r);
      List.iter
        (fun tm -> check_volumes ~what:(id ^ "/" ^ tm.Metrics.tensor) tm.Metrics.volumes)
        m.Metrics.per_tensor
  | Some (Api.Response.Volumes { tensors; _ }) ->
      List.iter (fun (t, _, v) -> check_volumes ~what:(id ^ "/" ^ t) v) tensors
  | _ -> fail "%s: unexpected payload" id

(* What the relational and concrete engines must agree on. *)
let engine_summary (m : Metrics.t) =
  ( m.Metrics.n_instances,
    m.Metrics.n_timestamps,
    List.map
      (fun tm ->
        let v = tm.Metrics.volumes in
        ( tm.Metrics.tensor,
          v.Metrics.total,
          v.Metrics.temporal_reuse,
          v.Metrics.spatial_reuse,
          v.Metrics.unique ))
      m.Metrics.per_tensor )

let metrics_of (resp : Api.Response.t) : Metrics.t =
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Metrics { metrics; _ }) -> metrics
  | _ -> fail "%s: no metrics in the answer" resp.Api.Response.id

(* [m] answered [r]; the other engine, run in-process, must agree. *)
let check_engines_agree (r : Api.Request.t) (m : Metrics.t) =
  let engine = if r.Api.Request.engine = `Concrete then `Relational else `Concrete in
  let other = metrics_of (Api.run { r with Api.Request.engine }) in
  if engine_summary m <> engine_summary other then
    fail "%s: relational and concrete engines disagree" r.Api.Request.id

(* ------------------------------------------------------------------ *)
(* Resident memory, from /proc.                                        *)
(* ------------------------------------------------------------------ *)

let vm_hwm_kb (pid : string) : int =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            else go ()
      in
      let v = go () in
      close_in ic;
      v

let peak_rss_mb_self () = float_of_int (vm_hwm_kb "self") /. 1024.

(* ------------------------------------------------------------------ *)
(* The result line.                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  setup_s : float;
  loop : loop;
  peak_rss_mb : float;
  layer : (string * float) list;
      (** per-layer metrics this workload measures (trace mode) *)
}

(* Every per-layer metric, with its unit, in BENCHMARK.json order.  A
   traced run reports all of them; a layer a workload does not reach
   reads 0. *)
let per_layer_units =
  [
    ("serve.decode_us", "us");
    ("serve.encode_us", "us");
    ("serve.execute_ms", "ms");
    ("serve.result_cache_hit_ratio", "ratio");
    ("serve.template_cache_hit_ratio", "ratio");
    ("serve.worker_exec_p50_ms", "ms");
    ("serve.worker_exec_p90_ms", "ms");
    ("serve.queue_wait_p90_ms", "ms");
    ("serve.frontend_p50_ms", "ms");
    ("serve.worker_busy_share", "ratio");
    ("serve.deadline_overrun_p50_ms", "ms");
    ("model.concrete_analyses_per_op", "count");
    ("model.instances_walked_per_op", "count");
    ("model.walk_self_s", "s");
    ("model.volumes_self_s", "s");
    ("model.template_class_fits", "count");
    ("model.template_fit_s", "s");
    ("model.template_fallbacks", "count");
    ("isl.points_enumerated_per_op", "count");
    ("isl.qpoly_hit_ratio", "ratio");
    ("isl.count_cache_hit_ratio", "ratio");
    ("isl.parametric_hit_ratio", "ratio");
    ("dse.search_ms", "ms");
    ("dse.evaluated_ratio", "ratio");
    ("dse.pruned_precheck", "count");
    ("dse.pruned_symmetry", "count");
    ("dse.pruned_dominated", "count");
    ("dse.pruned_capacity", "count");
    ("sim.run_ms", "ms");
    ("sim.ns_per_stamp", "ns");
    ("sim.stamps_per_op", "count");
    ("analysis.check_self_s", "s");
    ("analysis.checks_per_op", "count");
    ("obs.tracing_overhead", "ratio");
  ]

(* Per-layer figures every in-process workload reads the same way: the
   program's counters and span self times over the traced operations,
   and the benchmark's spans around the serve codec and Api.run. *)
let in_process_layer ~(traced_ops : int) =
  let delta = Telemetry.count in
  let per_op name = ratio_i (delta name) traced_ops in
  let hit_ratio hits misses = ratio_i (delta hits) (delta hits + delta misses) in
  let per_op_s pred = ratio (Telemetry.self_of pred) (float_of_int traced_ops) in
  [
    ("serve.decode_us", 1e6 *. Spans.mean_s "serve.decode");
    ("serve.encode_us", 1e6 *. Spans.mean_s "serve.encode");
    ("serve.execute_ms", 1e3 *. Spans.mean_s "serve.execute");
    ("serve.result_cache_hit_ratio", hit_ratio "serve.cache_hits" "serve.cache_misses");
    ( "serve.template_cache_hit_ratio",
      hit_ratio "serve.template_cache_hits" "serve.template_cache_misses" );
    ("model.concrete_analyses_per_op", per_op "concrete.analyses");
    ("model.instances_walked_per_op", per_op "concrete.instances_walked");
    ("model.walk_self_s", per_op_s (String.equal "concrete.walk"));
    ( "model.volumes_self_s",
      per_op_s (fun n -> String.length n > 8 && String.sub n 0 8 = "volumes.") );
    ("model.template_fallbacks", float_of_int (delta "template.fallbacks"));
    ("isl.points_enumerated_per_op", per_op "count.points_enumerated");
    ("isl.qpoly_hit_ratio", hit_ratio "count.qpoly_hits" "count.qpoly_fallbacks");
    ("isl.count_cache_hit_ratio", hit_ratio "count.cache_hits" "count.cache_misses");
    ("analysis.check_self_s", per_op_s (String.equal "analysis.check"));
    ("analysis.checks_per_op", per_op "analysis.checks");
  ]

let tracing_overhead (l : loop) =
  let rate n s = ratio (float_of_int n) s in
  ratio
    (rate l.lat_ms.Samples.len l.wall_s)
    (rate l.traced_ms.Samples.len l.traced_wall_s)

let emit (a : args) (o : outcome) : unit =
  let metric v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ] in
  let metrics =
    if a.trace then
      List.map
        (fun (name, unit) ->
          (name, metric (Option.value ~default:0. (List.assoc_opt name o.layer)) unit))
        per_layer_units
    else begin
      let lat = Samples.to_array o.loop.lat_ms in
      [
        ("setup_s", metric o.setup_s "s");
        ("ops_per_s", metric (ratio (float_of_int (Array.length lat)) o.loop.wall_s) "1/s");
        ("p50_ms", metric (quantile lat 0.5) "ms");
        ("p90_ms", metric (quantile lat 0.9) "ms");
        ("peak_rss_mb", metric o.peak_rss_mb "MB");
      ]
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool o.correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj metrics);
          ]))

(* Traced runs leave the benchmark's spans and the program's span
   roll-up behind for inspection. *)
let write_trace (a : args) =
  let self =
    Hashtbl.fold
      (fun k v acc ->
        (k, Json.Obj [ ("self_s", Json.Float v); ("calls", Json.Int (Telemetry.calls_of k)) ])
        :: acc)
      Telemetry.self_s []
    |> List.sort compare
  in
  let path =
    Filename.concat a.out_dir (Printf.sprintf "%s-seed%d.trace.json" a.workload a.seed)
  in
  Obs.write_file path
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.String a.workload);
             ("seed", Json.Int a.seed);
             ("bench_spans", Spans.to_json ());
             ("program_span_self", Json.Obj self);
             ("program_spans_dropped", Json.Int !Telemetry.dropped);
             ( "counters",
               Json.Obj
                 (Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) Telemetry.acc []
                 |> List.sort compare) );
           ])))

let timed (f : unit -> unit) : float =
  let t0 = now () in
  f ();
  now () -. t0

(* The median time of [reps] runs of a set-up phase. *)
let setup_median ~reps (f : unit -> unit) : float =
  median (Array.init reps (fun _ -> timed f))
