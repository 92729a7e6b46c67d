(* analyze_cold: in-process Api.run, one request at a time, every
   fingerprint distinct so the result cache never answers.  The concrete
   walk and the counting engine do the work; the template tier does
   none.

   A round asks each slot below once.  Extents are drawn per slot from
   narrow ranges chosen so that every request costs about the same
   (60-110 ms on the reference host); a quarter of the slots use the
   relational engine and three ask for volumes only.  Every slot has at
   least 51 distinct requests, about twice what a 20 s run draws from
   one slot on a fast host (here or as serve_fleet's misses), so fresh
   draws never run out. *)

open Common
module R = Api.Request

type slot = {
  cmd : R.cmd;
  engine : [ `Concrete | `Relational ];
  kernel : string;
  dataflow : string;
  arch : string;
  ranges : (int * int) list;  (** inclusive extent range per size *)
}

let slot ?(cmd = R.Analyze) ?(engine = `Concrete) kernel dataflow arch ranges =
  { cmd; engine; kernel; dataflow = kernel ^ "/" ^ dataflow; arch; ranges }

let tpu = "tpu-8x8-systolic"
let mesh = "mesh-8x8"
let maeri = "maeri-64"
let cube lo hi n = List.init n (fun _ -> (lo, hi))

let slots : slot array =
  [|
    slot "gemm" "(IJ-P | J,IJK-T)" tpu (cube 50 54 3);
    slot "gemm" "(KJ-P | K,IJK-T)" mesh (cube 46 50 3);
    slot ~engine:`Relational "gemm" "(IK-P | K,IJK-T)" tpu (cube 46 50 3);
    slot "gemm" "(K-P | I,J-T)" maeri (cube 46 50 3);
    slot "conv" "(KC-P | OY,KCOX-T)" tpu [ (13, 16); (13, 16); (7, 9); (7, 9); (3, 3); (3, 3) ];
    slot ~engine:`Relational "conv" "(OYOX-P | OY,OX-T)" tpu
      [ (13, 15); (13, 15); (7, 9); (7, 9); (3, 3); (3, 3) ];
    slot "conv" "(C-P | OY,OX-T)" maeri [ (10, 12); (14, 17); (7, 9); (7, 9); (3, 3); (3, 3) ];
    slot ~cmd:R.Volumes "conv" "(KC-P | C,KOX-T)" tpu
      [ (18, 21); (18, 21); (7, 9); (7, 9); (3, 3); (3, 3) ];
    slot "mttkrp" "(IJ-P | J,IJL-T)" tpu (cube 16 18 4);
    slot ~engine:`Relational "mttkrp" "(KL-P | L,KLJ-T)" tpu (cube 14 16 4);
    slot "mmc" "(IJ-P | J,IJL-T)" tpu (cube 17 20 4);
    slot ~cmd:R.Volumes "mmc" "(KJ-P | J,KJL-T)" tpu (cube 17 20 4);
    slot "jacobi2d" "(IJ-P | I,J-T)" tpu [ (178, 228) ];
    slot ~engine:`Relational "gemm" "(J-P | I,K-T)" maeri (cube 60 66 3);
    slot ~cmd:R.Volumes "gemm" "(IJ-P | J,IJK-T)" mesh (cube 52 58 3);
  |]

let draw st (s : slot) ~id : R.t =
  {
    (R.default s.cmd) with
    R.id;
    kernel = s.kernel;
    sizes = List.map (fun (lo, hi) -> between st lo hi) s.ranges;
    arch = s.arch;
    dataflow = Some s.dataflow;
    engine = s.engine;
  }

(* A fresh request for [s], never asked before in this run. *)
let fresh st seen (s : slot) ~id = draw_fresh seen (fun () -> draw st s ~id)

let run (a : args) : outcome =
  Tenet.Util.Parallel.set_jobs 1;
  let seen = Hashtbl.create 1024 in
  let counter = ref 0 in
  let next_id prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let round st prefix () =
    Array.map
      (fun s ->
        let r = fresh st seen s ~id:(next_id prefix) in
        (r, request_line r))
      slots
  in
  if a.trace then Telemetry.start ();
  (* Set-up: a warm-up pass over one round of fresh requests, three
     times; the median is the set-up time. *)
  let warm = setup_rng () in
  let setup_s =
    setup_median ~reps:3 (fun () ->
        Array.iter (fun (_, line) -> ignore (serve_line line)) (round warm "w" ()))
  in
  let answers = ref [] in
  let loop =
    closed_loop a ~round:(round (rng a 2) "a") ~exec:(fun (r, line) ->
        let resp, _ = serve_line line in
        answers := (r, resp) :: !answers;
        is_ok resp)
  in
  let peak_rss_mb = peak_rss_mb_self () in
  (* Checks, after the timed part. *)
  let correct =
    checks_pass a @@ fun () ->
    List.iter (fun (r, resp) -> check_answer r resp) !answers;
    (* relational and concrete agree on a seeded sample of analyses *)
    let st = rng a 3 in
    let analyses =
      Array.of_list (List.filter (fun (r, _) -> r.R.cmd = R.Analyze) !answers)
    in
    for _ = 1 to 4 do
      let r, resp = pick st analyses in
      check_engines_agree r (metrics_of resp)
    done
  in
  let traced_ops = loop.traced_ms.Samples.len in
  let layer =
    if not a.trace then []
    else begin
      write_trace a;
      in_process_layer ~traced_ops
      @ [ ("obs.tracing_overhead", tracing_overhead loop) ]
    end
  in
  { correct; attempted = loop.attempted; failed = loop.failed; setup_s; loop; peak_rss_mb; layer }
