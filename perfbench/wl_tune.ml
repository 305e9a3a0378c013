(* tune_search: a cold grid tune over Tune_space.default that writes a
   fresh cache file, a warm tune that reads it back, a re-measurement
   of each winner from outside the tuner, and a platform search over
   the quick space. *)

let matmul =
  { Tune_workload.wl_label = "matmul:32,32,32"; wl_workload = Matmul { m = 32; n = 32; k = 32 } }
let conv_layer = "224_3_7_64_2"

(* one output row of the layer, as conv_stream samples it *)
let sampled = function
  | Tune_workload.Conv c -> Tune_workload.Conv { c with ih = c.fhw }
  | w -> w

let conv () =
  match Tune_workload.of_spec ("resnet18/" ^ conv_layer) with
  | Ok [ w ] -> { w with Tune_workload.wl_workload = sampled w.Tune_workload.wl_workload }
  | _ -> failwith "tune_search: conv layer"

let platform_spec = "matmul:16,16,16"
let platform_requests = 24
let area_budget = 700.0

let tune ~host cache workloads =
  Hb.span "tuner.tune" (fun () ->
      Tuner.tune
        {
          Tuner.default_options with
          Tuner.strategy = Tune_strategy.Grid;
          space = Tune_space.default;
          cache = Some cache;
          host = Some host;
          tracer = (if Hb.tracing () then Some Hb.tracer else None);
        }
        workloads)

let pruned (r : Tune_report.result) = List.fold_left (fun a (_, n) -> a + n) 0 r.Tune_report.r_pruned

(* The tuner's own report of one workload, pinned: what it explored,
   pruned, ran, and chose. *)
let result_fields (r : Tune_report.result) =
  let best =
    match r.Tune_report.r_best with
    | None -> [ ("best", Json.Null) ]
    | Some b ->
      [
        ("best", Json.String (Tune_space.candidate_to_string b.Tune_report.bs_candidate));
        ("best_cycles", Json.Float b.Tune_report.bs_cycles);
      ]
  in
  [
    ("space", Json.Int r.Tune_report.r_space);
    ("pruned", Json.Int (pruned r));
    ("evaluated", Json.Int r.Tune_report.r_evaluated);
    ("rejected", Json.Int r.Tune_report.r_rejected);
  ]
  @ best

let count_report (rp : Tune_report.t) =
  List.iter
    (fun (r : Tune_report.result) ->
      Hb.count "tuner.evaluations" (float_of_int r.Tune_report.r_evaluated);
      Hb.count "tuner.cache_hits" (float_of_int r.Tune_report.r_cache_hits);
      Hb.count "tuner.pruned" (float_of_int (pruned r)))
    rp.Tune_report.rp_results

(* Seeded operand data and the Gold output of a workload, made at
   set-up for the re-measurement of its winner. *)
let operands ~seed (w : Tune_workload.t) =
  let data n tag =
    let a = Array.make n 0.0 in
    Gold.fill_deterministic ~seed:(Hashtbl.hash (seed, tag)) a;
    a
  in
  match w with
  | Tune_workload.Matmul { m; n; k } ->
    let a = data (m * k) "A" and b = data (k * n) "B" in
    ([ a; b ], Gold.matmul ~m ~n ~k a b)
  | Tune_workload.Conv { ic; ih; iw; oc; fhw; stride } ->
    let i = data (ic * ih * iw) "I" and wt = data (oc * ic * fhw * fhw) "W" in
    ([ i; wt ], Gold.conv2d ~stride ~n:1 ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw i wt)

(* Re-measure a winning candidate from outside the tuner, on the seeded
   operands: the cycles must be the ones the tuner reported and the
   output must match Gold. *)
let verify ~host label (w : Tune_workload.t) (inputs, gold) (b : Tune_report.best) =
  let cand = b.Tune_report.bs_candidate in
  let config =
    match Tune_space.config_of_candidate cand with Ok c -> c | Error msg -> failwith msg
  in
  let bench = Axi4mlir.create ~host config in
  let options = Tune_space.codegen_of_candidate cand in
  let layer = if options.Axi4mlir.double_buffer then "run.gen_db" else "run.gen" in
  let prefix = if options.Axi4mlir.double_buffer then "db" else "gen" in
  let fill views = List.iter2 Memref_view.fill_from views inputs in
  let expect_cycles (c : Perf_counters.t) =
    if c.Perf_counters.cycles <> b.Tune_report.bs_cycles then
      Hb.fail label
        (Printf.sprintf "re-measured %.17g cycles, tuner reported %.17g" c.Perf_counters.cycles
           b.Tune_report.bs_cycles)
  in
  match w with
  | Tune_workload.Matmul { m; n; k } ->
    let a, bb, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
    fill [ a; bb ];
    let zeros = Array.make (m * n) 0.0 in
    Wl_kernels.run_item label ~layer ~prefix bench ~out:c ~zeros ~gold
      (fun () ->
        let compiled =
          Wl_kernels.compile label bench
            (fun () -> Axi4mlir.build_matmul_module ~m ~n ~k ())
            ~options ()
        in
        fun () -> Axi4mlir.run_matmul bench ~options compiled ~a ~b:bb ~c);
    Option.iter expect_cycles !Wl_kernels.last
  | Tune_workload.Conv { ic; ih; iw; oc; fhw; stride } ->
    let i, wt, o =
      Axi4mlir.alloc_conv_operands ~stride bench ~n:1 ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw
    in
    fill [ i; wt ];
    let zeros = Array.make (Array.length gold) 0.0 in
    Wl_kernels.run_item label ~layer ~prefix bench ~out:o ~zeros ~gold
      (fun () ->
        let compiled =
          Wl_kernels.compile label bench
            (fun () -> Axi4mlir.build_conv_module ~stride ~n:1 ~ic ~ih ~iw ~oc ~fh:fhw ~fw:fhw ())
            ~options ()
        in
        fun () ->
          Axi4mlir.run_func bench ~copy_strategy:Dma_library.Specialized compiled "conv_call"
            [ Interp.M i; Interp.M wt; Interp.M o ]);
    Option.iter expect_cycles !Wl_kernels.last

let platform_fields (o : Platform_search.outcome) =
  let point = function
    | None -> Json.Null
    | Some (p : Platform_search.point) ->
      Json.String
        (Printf.sprintf "%s %.17g %.17g" (Platform_ir.to_string p.Platform_search.pt_platform)
           p.Platform_search.pt_throughput_rps p.Platform_search.pt_p99_cycles)
  in
  [
    ("space", Json.Int o.Platform_search.sr_space);
    ("over_budget", Json.Int o.Platform_search.sr_over_budget);
    ("evaluated", Json.Int o.Platform_search.sr_evaluated);
    ("best", point o.Platform_search.sr_best);
    ("front", Json.Int (List.length o.Platform_search.sr_front));
    ("baseline", point o.Platform_search.sr_baseline);
  ]

let tune_search ~host ~seed ~cache_file =
  let workloads = [ matmul; conv () ] in
  let inputs = List.map (fun w -> operands ~seed w.Tune_workload.wl_workload) workloads in
  let models =
    match Serve_cost.models_of_specs [ platform_spec ] with Ok m -> m | Error msg -> failwith msg
  in
  let stream =
    {
      Serve_request.st_seed = seed;
      st_count = platform_requests;
      st_mean_gap = Cost_model.default.Cost_model.cpu_freq_mhz *. 1e6 /. 1000.0;
      st_models = [ platform_spec ];
    }
  in
  let requests =
    match Serve_request.generate stream with Ok r -> r | Error msg -> failwith msg
  in
  fun () ->
    if Sys.file_exists cache_file then Sys.remove cache_file;
    let cold = ref None in
    Hb.item "tune/cold" (fun () ->
        let cache = Tune_cache.create () in
        let rp = tune ~host cache workloads in
        Hb.span "tuner.cache_io" (fun () -> Tune_cache.save cache cache_file);
        count_report rp;
        cold := Some rp;
        Hb.span "glue.check" (fun () ->
            List.iter
              (fun (r : Tune_report.result) ->
                Pins.check ~seeded:false ("tune/" ^ r.Tune_report.r_label) (result_fields r))
              rp.Tune_report.rp_results));
    Hb.item "tune/warm" (fun () ->
        let cache =
          Hb.span "tuner.cache_io" (fun () ->
              match Tune_cache.load cache_file with Ok c -> c | Error msg -> failwith msg)
        in
        let rp = tune ~host cache workloads in
        count_report rp;
        Hb.span "glue.check" (fun () ->
            match !cold with
            | None -> Hb.fail "tune/warm" "no cold pass to compare with"
            | Some c ->
              List.iter2
                (fun (cr : Tune_report.result) (wr : Tune_report.result) ->
                  if wr.Tune_report.r_evaluated <> 0 then
                    Hb.fail "tune/warm"
                      (Printf.sprintf "%s: warm pass ran %d evaluations" wr.Tune_report.r_label
                         wr.Tune_report.r_evaluated);
                  let best r =
                    Option.map
                      (fun b -> (b.Tune_report.bs_candidate, b.Tune_report.bs_cycles))
                      r.Tune_report.r_best
                  in
                  if best cr <> best wr then
                    Hb.fail "tune/warm" (wr.Tune_report.r_label ^ ": warm best differs from cold"))
                c.Tune_report.rp_results rp.Tune_report.rp_results));
    (match !cold with
    | None -> ()
    | Some rp ->
      List.iter2
        (fun (r : Tune_report.result) inputs ->
          match r.Tune_report.r_best with
          | None -> Hb.fail ("tune/" ^ r.Tune_report.r_label) "no winner"
          | Some b ->
            verify ~host ("tune/verify/" ^ r.Tune_report.r_label) r.Tune_report.r_workload inputs b)
        rp.Tune_report.rp_results inputs);
    Hb.item "platform/quick" (fun () ->
        let measure =
          Platform_search.default_measure ~policy:Serve_policy.Fifo ~models ~requests ()
        in
        match
          Hb.span "platform.search" (fun () ->
              Platform_search.search ~area_budget ~measure Platform_search.quick_space)
        with
        | Error msg -> Hb.fail "platform/quick" msg
        | Ok o ->
          Hb.count "platform.evaluated" (float_of_int o.Platform_search.sr_evaluated);
          Hb.count "platform.over_budget" (float_of_int o.Platform_search.sr_over_budget);
          Hb.span "glue.check" (fun () ->
              Pins.check ~seeded:true "platform/quick" (platform_fields o)))
