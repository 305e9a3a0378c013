(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV) on the simulated SoC.

   Usage:
     bench/main.exe                 run every experiment
     bench/main.exe fig13 fig16     run selected experiments
     bench/main.exe --quick [...]   trimmed sweeps (harness smoke test) *)

let experiments =
  [
    ("table1", "Table I: accelerator catalogue", Exp_table1.run);
    ("fig10", "Fig. 10: CPU vs accelerator crossover", Exp_fig10.run);
    ("fig11", "Fig. 11: flows before copy specialisation", Exp_fig11.run);
    ("fig12", "Fig. 12: perf counters, with/without copy specialisation", Exp_fig12.run);
    ("fig13", "Fig. 13: manual vs generated, matched flows", Exp_fig13.run);
    ("fig14", "Fig. 14: v4 tiling/dataflow heuristics", Exp_fig14.run);
    ("fig16", "Fig. 16: ResNet-18 convolution layers", Exp_fig16.run);
    ("fig17", "Fig. 17: TinyBERT end-to-end", Exp_fig17.run);
    ("fig_async", "Async: blocking vs double-buffered transfers", Exp_fig_async.run);
    ("ablation", "Ablation: codegen design choices", Exp_ablation.run);
    ("exp_tune", "Autotuner: design-space exploration gates", Exp_tune.run);
    ("exp_serve", "Serving: multi-accelerator scheduling & tail latency", Exp_serve.run);
    ("exp_graph", "Whole-model graph: residency reuse vs per-kernel baseline", Exp_graph.run);
    ("exp_platform", "Platform search: SoC co-design under an area budget", Exp_platform.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --trace DIR / --json DIR consume their value; extract them before
     the generic flag/selection split. *)
  let rec extract_dir flag = function
    | [] -> (None, [])
    | a :: dir :: rest when a = flag ->
      let _, others = extract_dir flag rest in
      (Some dir, others)
    | a :: rest ->
      let dir, others = extract_dir flag rest in
      (dir, a :: others)
  in
  let trace, args = extract_dir "--trace" args in
  let json, args = extract_dir "--json" args in
  (match trace with
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Report.trace_dir := Some dir
  | None -> ());
  (match json with
  | Some dir ->
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Report.json_dir := Some dir;
    Metrics.enable Metrics.default
  | None -> ());
  Report.quick := List.mem "--quick" args;
  let selected =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" name
              (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
            exit 2)
        names
  in
  print_endline "AXI4MLIR reproduction benchmarks (simulated PYNQ-Z2 SoC)";
  if !Report.quick then print_endline "(--quick mode: trimmed sweeps)";
  List.iter
    (fun (name, descr, f) ->
      Printf.printf "\n>>> %s\n%!" descr;
      Report.begin_experiment name;
      let t0 = Unix.gettimeofday () in
      f ();
      Report.end_experiment ();
      Printf.printf "<<< done in %.1fs (host wall clock)\n%!" (Unix.gettimeofday () -. t0))
    to_run
