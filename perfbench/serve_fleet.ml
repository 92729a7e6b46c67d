(* serve_fleet: [tenet serve --workers 2 --socket PATH] in its own
   process, driven by this process over one connection.  Two callers
   share the connection (one per worker; the server takes one
   connection at a time), each a closed loop: it sends its next request
   when its previous answer arrives.  This is the workload where the
   front end, the fleet's IPC, admission control and the per-worker
   result caches are on the request path.

   A caller's round is 20 requests in a seeded order:
   - 12 replays of a hot set the set-up warmed in both workers, so they
     are result-cache hits;
   - 4 fresh analyze misses of the analyze_cold kind;
   - 2 cheap [check] requests on fresh sizes;
   - 1 [stats] scrape, answered by the front end;
   - 1 deadline request: gemm 64^3 with deadline_ms 20.
   Hits, checks and stats are 75% of the requests, so p50 lies in the
   hit mode; misses and the deadline request are 25%, so p90 lies in
   the miss mode.  A deadline request counts as failed when its answer
   arrives later than twice its deadline. *)

open Common
module R = Api.Request

let workers = 2
let hot_set = 8
let deadline_ms = 20

type kind = Hot | Miss | Check | Stats | Deadline

let round_kinds =
  List.concat
    [
      List.init 12 (fun _ -> Hot);
      List.init 4 (fun _ -> Miss);
      List.init 2 (fun _ -> Check);
      [ Stats; Deadline ];
    ]

type sent = {
  kind : kind;
  req : R.t;
  line : string;
  mutable lat_ms : float;
  mutable answer : string;
}

(* ------------------------------------------------------------------ *)
(* The server process.                                                 *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; sock : string; fd : Unix.file_descr; rbuf : Buffer.t }

let server_seq = ref 0

let start_server (a : args) ~access_log : server =
  incr server_seq;
  let sock =
    Filename.concat a.out_dir (Printf.sprintf "fleet-%d-%d.sock" (Unix.getpid ()) !server_seq)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let argv =
    Array.of_list
      ([ a.tenet; "serve"; "--workers"; string_of_int workers; "--jobs"; "1"; "--socket"; sock ]
      @ match access_log with Some p -> [ "--access-log"; p ] | None -> [])
  in
  let env = Array.append [| "TENET_JOBS=1"; "TENET_SERVE_WORKER_JOBS=1" |] (Unix.environment ()) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process_env a.tenet argv env devnull devnull Unix.stderr in
  Unix.close devnull;
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.002;
        connect (tries - 1)
  in
  match connect 5_000 with
  | fd -> { pid; sock; fd; rbuf = Buffer.create 65536 }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      (try Sys.remove sock with Sys_error _ -> ());
      raise e

let children (pid : int) : int list =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let s = try input_line ic with End_of_file -> "" in
      close_in ic;
      String.split_on_char ' ' s |> List.filter_map int_of_string_opt

(* Peak resident memory of the front end and every worker. *)
let fleet_rss_mb (s : server) =
  let kb pid = vm_hwm_kb (string_of_int pid) in
  float_of_int (List.fold_left (fun acc p -> acc + kb p) (kb s.pid) (children s.pid)) /. 1024.

let running pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> false
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (* the state follows the parenthesised command name *)
      match String.rindex_opt line ')' with
      | Some i when i + 2 < String.length line -> line.[i + 2] <> 'Z'
      | _ -> false

(* Stop the front end, then wait until its workers have ended too. *)
let stop_server (s : server) =
  let kids = children s.pid in
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  (try Sys.remove s.sock with Sys_error _ -> ());
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  let deadline = now () +. 10. in
  List.iter
    (fun k ->
      while running k && now () < deadline do
        Unix.sleepf 0.005
      done;
      if running k then try Unix.kill k Sys.sigkill with Unix.Unix_error _ -> ())
    kids

(* Run [f] on a started server and stop it afterwards, also when [f]
   raises. *)
let stopping_on_error (s : server) (f : unit -> 'a) : 'a =
  match f () with
  | v -> v
  | exception e ->
      stop_server s;
      raise e

let stopping (s : server) (f : unit -> 'a) : 'a = Fun.protect ~finally:(fun () -> stop_server s) f

(* ------------------------------------------------------------------ *)
(* The connection: lines out, lines in, answers matched by id.         *)
(* ------------------------------------------------------------------ *)

let send (s : server) (line : string) =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write s.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Block until at least one whole line has arrived; return them all. *)
let rec receive (s : server) : string list =
  let data = Buffer.contents s.rbuf in
  match String.rindex_opt data '\n' with
  | Some last ->
      Buffer.clear s.rbuf;
      Buffer.add_substring s.rbuf data (last + 1) (String.length data - last - 1);
      String.split_on_char '\n' (String.sub data 0 last)
  | None -> (
      match Unix.select [ s.fd ] [] [] 60. with
      | [], _, _ -> failwith "serve_fleet: no answer from the server within 60 s"
      | _ ->
          let k = Unix.read s.fd chunk 0 (Bytes.length chunk) in
          if k = 0 then failwith "serve_fleet: the server closed the connection";
          Buffer.add_subbytes s.rbuf chunk 0 k;
          receive s)

let answer_id (line : string) =
  match Json.member "id" (Json.parse line) with
  | Some (Json.String id) -> id
  | _ -> failwith ("serve_fleet: answer without an id: " ^ line)

(* Send [lines] at once and wait for all their answers. *)
let exchange (s : server) (lines : string list) =
  List.iter (send s) lines;
  let pending = ref (List.length lines) in
  while !pending > 0 do
    pending := !pending - List.length (receive s)
  done

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)
(* ------------------------------------------------------------------ *)

let check_slots =
  [|
    ("gemm", "gemm/(IJ-P | J,IJK-T)", 3);
    ("gemm", "gemm/(KJ-P | K,IJK-T)", 3);
    ("mttkrp", "mttkrp/(IJ-P | J,IJL-T)", 4);
    ("mmc", "mmc/(KJ-P | J,KJL-T)", 4);
  |]

type inputs = {
  seen : (Digest.t, unit) Hashtbl.t;
  st : Random.State.t;
  hot : R.t array;
  mutable n : int;
  mutable misses : int;
}

let fresh_id (inp : inputs) prefix =
  inp.n <- inp.n + 1;
  Printf.sprintf "%s%d" prefix inp.n

let make_request (inp : inputs) (kind : kind) : R.t =
  let id = fresh_id inp (match kind with Hot -> "h" | Miss -> "m" | Check -> "c" | Stats -> "s" | Deadline -> "d") in
  match kind with
  | Hot -> { (pick inp.st inp.hot) with R.id }
  | Miss ->
      (* the slots in turn, so every run asks the same mix *)
      inp.misses <- inp.misses + 1;
      let slots = Analyze_cold.slots in
      Analyze_cold.fresh inp.st inp.seen slots.(inp.misses mod Array.length slots) ~id
  | Check ->
      let kernel, df, dims = pick inp.st check_slots in
      draw_fresh inp.seen (fun () ->
          {
            (R.default R.Check) with
            R.id;
            kernel;
            dataflow = Some df;
            sizes = List.init dims (fun _ -> between inp.st 16 64);
          })
  | Stats -> { (R.default R.Stats) with R.id }
  | Deadline ->
      { (R.default R.Analyze) with R.id; sizes = [ 64; 64; 64 ]; deadline_ms = Some deadline_ms }

let shuffle st (l : 'a list) : 'a list =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let round (inp : inputs) : sent list =
  List.map
    (fun kind ->
      let req = make_request inp kind in
      { kind; req; line = request_line req; lat_ms = 0.; answer = "" })
    (shuffle inp.st round_kinds)

(* ------------------------------------------------------------------ *)
(* Set-up and the timed part.                                          *)
(* ------------------------------------------------------------------ *)

(* Start a fleet and warm the hot set into both workers: each hot
   request is sent twice at once, so the least-loaded dispatch hands
   the copies to different workers; a second pass confirms. *)
let set_up (a : args) ~access_log (hot : R.t array) : server =
  let s = start_server a ~access_log in
  stopping_on_error s @@ fun () ->
  exchange s [ request_line { (R.default R.Stats) with R.id = "ready" } ];
  for pass = 1 to 2 do
    Array.iteri
      (fun i r ->
        let line k = request_line { r with R.id = Printf.sprintf "warm%d.%d.%d" pass i k } in
        exchange s [ line 0; line 1 ])
      hot
  done;
  s

(* Both callers run whole rounds until [seconds] have passed (and at
   least [min_ops] answers arrived). *)
let drive (s : server) (inp : inputs) ~seconds : sent list * float =
  let inflight : (string, sent * float * int) Hashtbl.t = Hashtbl.create 8 in
  let queues = Array.make workers [] in
  let done_ = ref [] and completed = ref 0 in
  let t0 = now () in
  let finished = Array.make workers false in
  let next c =
    (match queues.(c) with
    | [] when now () -. t0 >= seconds && !completed >= min_ops -> finished.(c) <- true
    | [] -> queues.(c) <- round inp
    | _ -> ());
    match queues.(c) with
    | x :: rest when not finished.(c) ->
        queues.(c) <- rest;
        Hashtbl.replace inflight x.req.R.id (x, now (), c);
        send s x.line
    | _ -> ()
  in
  for c = 0 to workers - 1 do
    next c
  done;
  while Hashtbl.length inflight > 0 do
    List.iter
      (fun line ->
        let t = now () in
        let id = answer_id line in
        match Hashtbl.find_opt inflight id with
        | None -> failwith ("serve_fleet: unexpected answer " ^ id)
        | Some (x, t_sent, c) ->
            Hashtbl.remove inflight id;
            x.lat_ms <- (t -. t_sent) *. 1e3;
            x.answer <- line;
            done_ := x :: !done_;
            incr completed;
            next c)
      (receive s)
  done;
  (List.rev !done_, now () -. t0)

let failed (x : sent) =
  match x.kind with
  | Deadline -> x.lat_ms > 2. *. float_of_int deadline_ms
  | _ -> ( match Json.member "status" (Json.parse x.answer) with Some (Json.String "ok") -> false | _ -> true)

(* ------------------------------------------------------------------ *)
(* Checks.                                                             *)
(* ------------------------------------------------------------------ *)

let field j k = match Json.member k j with Some v -> v | None -> fail "answer lacks %s" k

let payload (x : sent) = field (Json.parse x.answer) "payload"

let fleet_metrics (x : sent) : Metrics.t =
  match Metrics.of_json (field (payload x) "metrics") with
  | Ok m -> m
  | Error e -> fail "%s: bad metrics: %s" x.req.R.id e

let check_json (x : sent) =
  let payload = payload x in
  match field payload "kind" with
  | Json.String "metrics" ->
      let m = fleet_metrics x in
      if m.Metrics.n_instances <> expected_instances x.req then
        fail "%s: n_instances %d, expected %d" x.req.R.id m.Metrics.n_instances
          (expected_instances x.req);
      List.iter (fun tm -> check_volumes ~what:x.req.R.id tm.Metrics.volumes) m.Metrics.per_tensor
  | Json.String "volumes" -> (
      match field payload "tensors" with
      | Json.List ts ->
          List.iter
            (fun t ->
              let v = field t "volumes" in
              let i k = match field v k with Json.Int n -> n | _ -> fail "%s: bad %s" x.req.R.id k in
              check_volumes ~what:x.req.R.id
                {
                  Metrics.total = i "total";
                  temporal_reuse = i "temporal_reuse";
                  spatial_reuse = i "spatial_reuse";
                  unique = i "unique";
                })
            ts
      | _ -> fail "%s: bad tensors" x.req.R.id)
  | _ -> fail "%s: unexpected payload" x.req.R.id

let check_all (a : args) (answers : sent list) =
  List.iter
    (fun x ->
      match x.kind with
      | Hot | Miss ->
          if failed x then fail "%s: status is not ok" x.req.R.id;
          check_json x
      | Check -> if failed x then fail "%s: status is not ok" x.req.R.id
      | Stats | Deadline -> ())
    answers;
  (* fleet answers are byte-identical to an in-process Api.run *)
  let pool = Array.of_list (List.filter (fun x -> x.kind <> Stats && x.kind <> Deadline) answers) in
  let st = rng a 3 in
  for _ = 1 to 24 do
    let x = pick st pool in
    let local = Tenet.Serve.Protocol.response_line (Api.run_json (Json.parse x.line)) in
    if local <> x.answer then fail "%s: fleet answer differs from in-process Api.run" x.req.R.id
  done;
  (* the relational and concrete engines agree on a seeded sample *)
  let misses =
    Array.of_list (List.filter (fun x -> x.kind = Miss && x.req.R.cmd = R.Analyze) answers)
  in
  for _ = 1 to 4 do
    let x = pick st misses in
    check_engines_agree x.req (fleet_metrics x)
  done

(* ------------------------------------------------------------------ *)
(* Access logs of the traced fleet.                                    *)
(* ------------------------------------------------------------------ *)

type log_line = { l_lat : float; l_cache : string; l_wait : float option }

let read_logs path : (string, log_line) Hashtbl.t =
  let tbl = Hashtbl.create 1024 in
  for w = 0 to workers - 1 do
    let p = Printf.sprintf "%s.w%d" path w in
    if Sys.file_exists p then begin
      let ic = open_in p in
      (try
         while true do
           let j = Json.parse (input_line ic) in
           let num k = Option.bind (Json.member k j) Json.to_float in
           match (Json.member "id" j, num "latency_ms") with
           | Some (Json.String id), Some lat ->
               let cache = match Json.member "cache" j with Some (Json.String c) -> c | _ -> "" in
               Hashtbl.replace tbl id { l_lat = lat; l_cache = cache; l_wait = num "queue_wait_ms" }
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic
    end
  done;
  tbl

let fleet_layer ~(answers : sent list) ~(wall_s : float) ~(logs : (string, log_line) Hashtbl.t) =
  let logged = List.filter_map (fun x -> Option.map (fun l -> (x, l)) (Hashtbl.find_opt logs x.req.R.id)) answers in
  let arr f = Array.of_list (List.map f logged) in
  let worker = arr (fun (_, l) -> l.l_lat) in
  let front = arr (fun (x, l) -> x.lat_ms -. l.l_lat) in
  let waits = List.filter_map (fun (_, l) -> l.l_wait) logged in
  let hits = List.length (List.filter (fun (_, l) -> l.l_cache = "hit") logged) in
  let misses = List.length (List.filter (fun (_, l) -> l.l_cache = "miss") logged) in
  [
    ("serve.execute_ms", ratio (Array.fold_left ( +. ) 0. worker) (float_of_int (Array.length worker)));
    ("serve.result_cache_hit_ratio", ratio_i hits (hits + misses));
    ("serve.worker_exec_p50_ms", quantile worker 0.5);
    ("serve.worker_exec_p90_ms", quantile worker 0.9);
    (* fleet workers log no queue wait of their own: the wait is what
       the caller sees beyond the worker's execution *)
    ( "serve.queue_wait_p90_ms",
      if waits <> [] then quantile (Array.of_list waits) 0.9 else quantile front 0.9 );
    ("serve.frontend_p50_ms", quantile front 0.5);
    ( "serve.worker_busy_share",
      ratio (Array.fold_left ( +. ) 0. worker) (1e3 *. wall_s *. float_of_int workers) );
  ]

(* ------------------------------------------------------------------ *)

let run (a : args) : outcome =
  Tenet.Util.Parallel.set_jobs 1;
  let warm = setup_rng () in
  let hot_seen = Hashtbl.create 16 in
  let hot =
    Array.init hot_set (fun i ->
        Analyze_cold.fresh warm hot_seen Analyze_cold.slots.(i) ~id:"")
  in
  let inp = { seen = hot_seen; st = rng a 2; hot; n = 0; misses = 0 } in
  let count_failed l = List.length (List.filter failed l) in
  let overrun l =
    Array.of_list
      (List.filter_map
         (fun x -> if x.kind = Deadline then Some (x.lat_ms -. float_of_int deadline_ms) else None)
         l)
  in
  let finish answers ~(loop : loop) ~setup_s ~peak_rss_mb ~layer =
    let correct = checks_pass a (fun () -> check_all a answers) in
    { correct; attempted = loop.attempted; failed = loop.failed; setup_s; loop; peak_rss_mb; layer }
  in
  if not a.trace then begin
    (* three set-ups, each fleet stopped before the next starts; the
       last one stays up for the timed part *)
    let server = ref None in
    let start () =
      Option.iter stop_server !server;
      timed (fun () -> server := Some (set_up a ~access_log:None hot))
    in
    let setup_s = median (Array.init 3 (fun _ -> start ())) in
    let s = Option.get !server in
    let answers, wall_s, peak_rss_mb =
      stopping s (fun () ->
          let answers, wall_s = drive s inp ~seconds:a.seconds in
          (answers, wall_s, fleet_rss_mb s))
    in
    let loop = new_loop () in
    List.iter (fun x -> Samples.add loop.lat_ms x.lat_ms) answers;
    loop.wall_s <- wall_s;
    loop.attempted <- List.length answers;
    loop.failed <- count_failed answers;
    finish answers ~loop ~setup_s ~peak_rss_mb ~layer:[]
  end
  else begin
    (* Traced run: half the time on a plain fleet, half on one that
       writes per-worker access logs. *)
    let half = a.seconds /. 2. in
    let plain, plain_wall =
      let s = set_up a ~access_log:None hot in
      stopping s (fun () -> drive s inp ~seconds:half)
    in
    let log = Filename.concat a.out_dir (Printf.sprintf "access-seed%d.log" a.seed) in
    for w = 0 to workers - 1 do
      try Sys.remove (Printf.sprintf "%s.w%d" log w) with Sys_error _ -> ()
    done;
    let traced, traced_wall =
      let s = set_up a ~access_log:(Some log) hot in
      stopping s (fun () -> drive s inp ~seconds:half)
    in
    let answers = plain @ traced in
    let loop = new_loop () in
    List.iter (fun x -> Samples.add loop.lat_ms x.lat_ms) plain;
    List.iter (fun x -> Samples.add loop.traced_ms x.lat_ms) traced;
    loop.wall_s <- plain_wall;
    loop.traced_wall_s <- traced_wall;
    loop.attempted <- List.length answers;
    loop.failed <- count_failed answers;
    let layer =
      fleet_layer ~answers:traced ~wall_s:traced_wall ~logs:(read_logs log)
      @ [
          ("serve.deadline_overrun_p50_ms", median (overrun answers));
          ("obs.tracing_overhead", tracing_overhead loop);
        ]
    in
    finish answers ~loop ~setup_s:0. ~peak_rss_mb:0. ~layer
  end
