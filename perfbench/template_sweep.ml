(* template_sweep: in-process [params] requests answered by the serve
   template-cache tier.  Set-up fits one residue class per structure
   below (the same classes on every run), then answers fresh sizes
   until the result cache is full.  The timed operations are fresh
   sizes inside those classes, answered by substitution; every answer
   is a result-cache miss whose insertion evicts an older one.  The
   concrete walk does nothing in the timed part. *)

open Common
module R = Api.Request

type structure = {
  kernel : string;
  dataflow : string;
  params : string list;
  base : int list;  (** extents of the dims that are not params *)
  residues : int list;  (** the class: each param's extent mod 8 *)
  qmin : int;  (** smallest extent/8 above the class's sample floor *)
  qspan : int;  (** timed extents use qmin <= extent/8 < qmin + qspan *)
}

let structures : structure array =
  [|
    { kernel = "gemm"; dataflow = "gemm/(IJ-P | J,IJK-T)"; params = [ "i"; "j"; "k" ];
      base = []; residues = [ 3; 5; 6 ]; qmin = 4; qspan = 48 };
    { kernel = "gemm"; dataflow = "gemm/(KJ-P | K,IJK-T)"; params = [ "i"; "j"; "k" ];
      base = []; residues = [ 1; 4; 7 ]; qmin = 4; qspan = 48 };
    { kernel = "gemm"; dataflow = "gemm/(IK-P | K,IJK-T)"; params = [ "i"; "j"; "k" ];
      base = []; residues = [ 2; 6; 5 ]; qmin = 4; qspan = 48 };
    { kernel = "conv"; dataflow = "conv/(KC-P | OY,KCOX-T)"; params = [ "k"; "c" ];
      base = [ 6; 6; 3; 3 ]; residues = [ 3; 5 ]; qmin = 2; qspan = 256 };
    { kernel = "mttkrp"; dataflow = "mttkrp/(IJ-P | J,IJL-T)"; params = [ "i"; "j" ];
      base = [ 8; 8 ]; residues = [ 1; 6 ]; qmin = 2; qspan = 256 };
    { kernel = "mmc"; dataflow = "mmc/(IJ-P | J,IJL-T)"; params = [ "i"; "j" ];
      base = [ 8; 8 ]; residues = [ 4; 2 ]; qmin = 2; qspan = 256 };
  |]

(* Params lead the size list in every structure above. *)
let request (s : structure) ~id (qs : int list) : R.t =
  {
    (R.default R.Analyze) with
    R.id;
    kernel = s.kernel;
    sizes = List.map2 (fun q r -> (8 * q) + r) qs s.residues @ s.base;
    dataflow = Some s.dataflow;
    params = s.params;
  }

let draw st (s : structure) ~id ~qspan =
  request s ~id (List.map (fun _ -> between st s.qmin (s.qmin + qspan - 1)) s.params)

let has_forms (resp : Api.Response.t) =
  match resp.Api.Response.body.Api.Response.payload with
  | Some (Api.Response.Metrics { forms; _ }) -> forms <> []
  | _ -> false

let run (a : args) : outcome =
  Tenet.Util.Parallel.set_jobs 1;
  if a.trace then Telemetry.start ();
  (* Set-up: fit every class from cold caches, three times. *)
  let fits = ref 0 and param_hits = ref 0 and param_misses = ref 0 in
  let fit_s =
    setup_median ~reps:3 (fun () ->
        Api.clear_cache ();
        Tenet.Isl.Count.cache_clear ();
        let c0 = Telemetry.live in
        let f0 = c0 "template.class_fits"
        and h0 = c0 "count.template_hits"
        and m0 = c0 "count.template_fallbacks" in
        Array.iteri
          (fun i s ->
            let line = request_line (request s ~id:(Printf.sprintf "fit%d" i) (List.map (fun _ -> s.qmin + 2) s.params)) in
            let resp, _ = serve_line line in
            if not (has_forms resp) then
              failwith (Printf.sprintf "template_sweep: %s did not fit" s.dataflow))
          structures;
        fits := Telemetry.live "template.class_fits" - f0;
        param_hits := Telemetry.live "count.template_hits" - h0;
        param_misses := Telemetry.live "count.template_fallbacks" - m0)
  in
  let seen = Hashtbl.create 65536 in
  let st = rng a 2 in
  let n = ref 0 in
  let fallbacks = ref 0 in
  let round () =
    Array.map
      (fun s ->
        incr n;
        let id = Printf.sprintf "t%d" !n in
        request_line (draw_fresh seen (fun () -> draw st s ~id ~qspan:s.qspan)))
      structures
  in
  (* Set-up, second phase: answer fresh sizes until the result cache is
     full and starts to evict, as it is in a long sweep.  The timed part
     then sees the cache in its steady state. *)
  let evictions () = (Api.cache_tiers ()).Api.result.Tenet.Serve.Cache.evictions in
  let fill_s =
    timed (fun () ->
        while evictions () = 0 do
          Array.iter (fun line -> ignore (serve_line line)) (round ())
        done)
  in
  let setup_s = fit_s +. fill_s in
  let loop =
    closed_loop a ~round ~exec:(fun line ->
        let resp, _ = serve_line line in
        if not (has_forms resp) then incr fallbacks;
        is_ok resp)
  in
  let peak_rss_mb = peak_rss_mb_self () in
  let correct =
    checks_pass a @@ fun () ->
    if !fallbacks > 0 then
      fail "%d timed answers fell back to the concrete engine" !fallbacks;
    (* On a seeded sample of enumerable sizes, the instantiated metrics
       equal a fresh concrete analysis. *)
    let st = rng a 3 in
    Array.iteri
      (fun i s ->
        for j = 1 to 2 do
          let r = draw st s ~id:(Printf.sprintf "chk%d.%d" i j) ~qspan:2 in
          let resp = Api.run r in
          if not (has_forms resp) then fail "%s: not answered by the template" r.R.id;
          let op = Api.op_of r in
          let fresh =
            Tenet.Model.Concrete.analyze (Api.arch_of r) op (Api.dataflow_of r op)
          in
          let js m = Json.to_string (Metrics.to_json m) in
          if js (metrics_of resp) <> js fresh then
            fail "%s %s: template metrics differ from a fresh concrete analysis"
              s.dataflow
              (String.concat "," (List.map string_of_int r.R.sizes))
        done)
      structures
  in
  let traced_ops = loop.traced_ms.Samples.len in
  let layer =
    if not a.trace then []
    else begin
      write_trace a;
      in_process_layer ~traced_ops
      @ [
          ("model.template_class_fits", float_of_int !fits);
          ("model.template_fit_s", fit_s);
          ("isl.parametric_hit_ratio", ratio_i !param_hits (!param_hits + !param_misses));
          ("obs.tracing_overhead", tracing_overhead loop);
        ]
    end
  in
  { correct; attempted = loop.attempted; failed = loop.failed; setup_s; loop; peak_rss_mb; layer }
