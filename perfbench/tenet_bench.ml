(* The benchmark's workload runner: one workload per process.

     tenet_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                     --tenet PATH --out-dir DIR

   prints one JSON result line last on stdout (see README.md) and exits
   nonzero when an output check fails.  perfbench/run.py builds it and
   is the command to use. *)

open Common

let workloads =
  [
    ("analyze_cold", Analyze_cold.run);
    ("template_sweep", Template_sweep.run);
    ("mapper_validate", Mapper_validate.run);
    ("serve_fleet", Serve_fleet.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tenet = ref "" and out_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed part");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--tenet", Arg.Set_string tenet, "PATH the tenet binary (serve_fleet)");
      ("--out-dir", Arg.Set_string out_dir, "DIR where traced runs write spans");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "tenet_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline
        ("unknown workload; expected one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  | Some run ->
      let a =
        {
          workload = !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace <> 0;
          tenet = !tenet;
          out_dir = !out_dir;
        }
      in
      let o = run a in
      emit a o;
      exit (if o.correct then 0 else 1)
