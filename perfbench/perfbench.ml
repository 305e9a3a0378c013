(* Host-time benchmark of the simulator.

   perfbench --workload W --seed N --seconds S --trace 0|1

   Untraced (--trace 0): set the workload up, run one untimed warm-up
   pass, then for S seconds run passes, with set-up rounds between them
   (setup_s is the median per set-up), and report the end-to-end
   metrics. Traced (--trace 1): run
   the ROADMAP probe, then, after the warm-up, split what is left of the
   S seconds into half untraced and half with every layer call wrapped
   in a span, then the attribution pass; report the per-layer metrics.
   The last line of standard output is the result object; the line
   before it is the provenance.

   perfbench --pin --seed N        write perfbench/pins/W-seed-N.json
   perfbench --self-test ...       show that a perturbed pin fails *)

let workloads = [ "conv_stream"; "matmul_sweep"; "serve_backlog"; "tune_search" ]

let usage =
  "perfbench --workload (" ^ String.concat "|" workloads
  ^ ") --seed N --seconds S --trace 0|1 [--pin] [--self-test] [--pins DIR] [--tmp DIR] \
     [--commit C] [--source-digest D]"

let workload = ref "" and seed = ref Pins.default_seed and seconds = ref 10.0
let trace = ref 0 and pin_mode = ref false and self_test_mode = ref false
let tmp = ref "." and commit = ref "unknown" and source_digest = ref "unknown"
let spans_file = ref ""

let nocache = { Host_config.pynq_z2 with Host_config.caches = [] }

let setup ~host =
  match !workload with
  | "conv_stream" -> Wl_kernels.conv_stream ~host ~seed:!seed
  | "matmul_sweep" -> Wl_kernels.matmul_sweep ~host ~seed:!seed
  | "serve_backlog" -> Wl_serve.serve_backlog ~host ~seed:!seed
  | "tune_search" ->
    Wl_tune.tune_search ~host ~seed:!seed ~cache_file:(Filename.concat !tmp "tune-cache.json")
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* {1 Passes} *)

type pass = {
  wall : float;
  alloc : float;
  calib : float;
  counts : (string * float) list;
  attempted : int;
  failed : (string * string) list;  (** one (item, first reason) per failed item *)
  events : Trace.event list;  (** the traced pass's recording; [] untraced *)
  spans : Hb.span list;
  pass_us : float;  (** compiler pass time, from the pass-timing metrics *)
  compiles : float;
  tuner_eval_s : float;
}

let failed_items failures =
  List.fold_left
    (fun acc (item, reason) -> if List.mem_assoc item acc then acc else (item, reason) :: acc)
    [] (List.rev failures)

(* Every pass starts from a compacted heap, so that the heap layout a
   previous pass left behind does not carry over. *)
let run_pass ~traced f =
  Gc.compact ();
  let calib = Hb.calibrate () in
  Hb.reset_pass ();
  if traced then begin
    Metrics.reset Metrics.default;
    Metrics.enable Metrics.default;
    Hb.start_tracing ()
  end;
  let a0 = Hb.alloc_words () and t0 = Hb.now () in
  f ();
  let wall = Hb.now () -. t0 and alloc = Hb.alloc_words () -. a0 in
  let events = Trace.events Hb.tracer in
  Trace.disable Hb.tracer;
  let tuner_eval_s =
    List.fold_left
      (fun acc (e : Trace.event) ->
        match e.Trace.ev_kind with
        | Trace.Complete dur when String.starts_with ~prefix:"evaluate " e.Trace.ev_name ->
          acc +. (dur /. 1e6)
        | _ -> acc)
      0.0 events
  in
  let p =
    {
      wall;
      alloc;
      calib;
      counts = List.of_seq (Hashtbl.to_seq Hb.counts);
      attempted = !Hb.attempted;
      failed = failed_items !Hb.failures;
      events;
      spans = Hb.spans events;
      pass_us = Metrics.total "compiler.pass_us";
      compiles =
        Metrics.counter_value ~labels:[ ("pass", "match-and-annotate") ] "compiler.pass_runs";
      tuner_eval_s;
    }
  in
  Metrics.disable Metrics.default;
  Metrics.reset Metrics.default;
  p

(* The results of [g] repeated for [budget] seconds, at least once. *)
let repeat_for ~budget g =
  let start = Hb.now () in
  let rec go acc = if acc <> [] && Hb.now () -. start >= budget then List.rev acc else go (g () :: acc) in
  go []

let run_for ~traced ~budget f = repeat_for ~budget (fun () -> run_pass ~traced f)

let cnt p name = Option.value ~default:0.0 (List.assoc_opt name p.counts)

(* {1 Metrics} *)

(* A count summed over the run kinds that count it. *)
let sum p kinds k = List.fold_left (fun acc kind -> acc +. cnt p (kind ^ "." ^ k)) 0.0 kinds

let dma_words p = sum p [ "gen"; "db"; "man" ] "words" +. cnt p "serve.miss_words"

let median_of ps f = Hb.median (List.map f ps)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let end_to_end passes ~setup_s =
  let items p =
    if cnt p "serve.requests" > 0.0 then cnt p "serve.requests" else float_of_int p.attempted
  in
  [
    ("wall_s", "s", median_of passes (fun p -> p.wall));
    ("sim_words_per_s", "word/s", median_of passes (fun p -> dma_words p /. p.wall));
    ("requests_per_s", "1/s", median_of passes (fun p -> items p /. p.wall));
    ("alloc_words", "word", median_of passes (fun p -> p.alloc));
    ( "peak_heap_mb",
      "MB",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ("setup_s", "s", setup_s);
  ]

let span_sum p name =
  List.fold_left
    (fun (t, a) (s : Hb.span) ->
      if s.Hb.sp_name = name then (t +. s.Hb.sp_dur, a +. s.Hb.sp_alloc)
      else (t, a))
    (0.0, 0.0) p.spans

(* The per-layer figures of one traced pass. *)
let per_layer p =
  let time n = fst (span_sum p n) and alloc n = snd (span_sum p n) in
  let gen = time "run.gen" and db = time "run.gen_db" and man = time "run.manual" in
  let miss_s = cnt p "serve.miss_s" in
  let words = dma_words p in
  let all = sum p [ "gen"; "db"; "man"; "cpu" ] in
  let tuner = time "tuner.tune" in
  let hits = cnt p "serve.memo_hits" and misses = cnt p "serve.memo_misses" in
  let cpu = time "cpu_ref" in
  [
    ("compile.s", "s", p.pass_us /. 1e6);
    ("compile.calls", "count", p.compiles);
    ("compile.alloc_words", "word", alloc "compile");
    ("run.gen_s", "s", gen);
    ("run.manual_s", "s", man);
    ("interp.est_s", "s", gen -. man);
    ("sim.dma.words", "word", words);
    ("sim.dma.transactions", "count", sum p [ "gen"; "db"; "man" ] "transactions");
    ("sim.dma.ns_per_word", "ns/word", ratio ((gen +. db +. man +. miss_s) *. 1e9) words);
    ( "sim.alloc_per_dma_word",
      "word/word",
      ratio
        (alloc "run.gen" +. alloc "run.gen_db" +. alloc "run.manual" +. cnt p "serve.miss_alloc")
        words );
    ("sim.async.s", "s", db);
    ("sim.async.transactions", "count", cnt p "db.transactions");
    ("sim.async.ns_per_transaction", "ns", ratio (db *. 1e9) (cnt p "db.transactions"));
    ("sim.async.overhead_ratio", "ratio", if db > 0.0 then ratio db gen else 0.0);
    ("sim.cache.refs", "count", all "cache_refs");
    ("sim.cache.l1_miss_ratio", "ratio", ratio (all "l1_misses") (all "l1_accesses"));
    ("drivers.cpu_ref_s", "s", cpu);
    ("drivers.cpu_ref.ns_per_cache_ref", "ns", ratio (cpu *. 1e9) (cnt p "cpu.cache_refs"));
    ("serve.sched_s", "s", time "serve.run" -. cnt p "serve.oracle_call_s");
    ("serve.dispatches", "count", cnt p "serve.dispatches");
    ("serve.requests", "count", cnt p "serve.requests");
    ("serve.oracle_s", "s", time "serve.oracle" +. cnt p "serve.oracle_call_s");
    ("serve.oracle_calls", "count", cnt p "serve.oracle_calls");
    ("serve.memo_hits", "count", hits);
    ("serve.memo_misses", "count", misses);
    ("serve.memo_hit_ratio", "ratio", ratio hits (hits +. misses));
    ("tuner.s", "s", tuner);
    ("tuner.eval_s", "s", p.tuner_eval_s);
    ("tuner.self_s", "s", if tuner > 0.0 then tuner -. p.tuner_eval_s else 0.0);
    ("tuner.evaluations", "count", cnt p "tuner.evaluations");
    ("tuner.cache_hits", "count", cnt p "tuner.cache_hits");
    ("tuner.pruned", "count", cnt p "tuner.pruned");
    ("tuner.cache_io_s", "s", time "tuner.cache_io");
    ("platform.search_s", "s", time "platform.search");
    ("platform.evaluated", "count", cnt p "platform.evaluated");
    ("platform.over_budget", "count", cnt p "platform.over_budget");
    ("trace.glue_s", "s", time "glue.check" +. time "glue.reset");
    ( "trace.accounting_gap",
      "ratio",
      let covered = List.fold_left (fun acc (s : Hb.span) -> acc +. s.Hb.sp_self) 0.0 p.spans in
      Float.abs (p.wall -. covered) /. p.wall );
  ]

(* Counts that depend only on the program and must read the same with
   and without tracing. *)
let deterministic =
  [
    "gen.words"; "db.words"; "man.words"; "serve.miss_words"; "gen.cache_refs"; "db.cache_refs";
    "man.cache_refs"; "cpu.cache_refs"; "serve.memo_hits"; "serve.memo_misses"; "serve.oracle_calls";
    "serve.requests"; "serve.dispatches"; "tuner.evaluations"; "tuner.cache_hits";
    "platform.evaluated";
  ]

let accounting_tolerance = 0.02

(* {1 Output} *)

let provenance ~passes ~extra =
  let floats xs = Json.List (List.map (fun x -> Json.Float x) xs) in
  let q f = floats (List.map (Hb.quantile (List.map f passes)) [ 0.25; 0.5; 0.75 ]) in
  Json.Obj
    ([
       ("workload", Json.String !workload);
       ("seed", Json.Int !seed);
       ("commit", Json.String !commit);
       ("source_digest", Json.String !source_digest);
       ("ocaml", Json.String Sys.ocaml_version);
       ("profile", Json.String Build_profile.name);
       ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ("passes", Json.Int (List.length passes));
       ("wall_s_q1_med_q3", q (fun p -> p.wall));
       ("calib_s_q1_med_q3", q (fun p -> p.calib));
       ("wall_s_per_pass", floats (List.map (fun p -> p.wall) passes));
       ("calib_s_per_pass", floats (List.map (fun p -> p.calib) passes));
       ("alloc_words_per_pass", floats (List.map (fun p -> p.alloc) passes));
     ]
    @ extra)

(* Items attempted and failed over the checked passes, plus checks made
   outside any pass. *)
let tally ?(attempted = 0) ?(failed = []) passes =
  ( List.fold_left (fun a p -> a + p.attempted) attempted passes,
    List.concat_map (fun p -> p.failed) passes @ failed )

(* [passes] are the timed passes, [tally] the checked items. *)
let emit ~passes ~tally:(attempted, failures) ~extra metrics =
  List.iter (fun (item, why) -> Printf.eprintf "FAIL %s: %s\n" item why) failures;
  let failed = min (List.length failures) attempted in
  let fail_ratio = ratio (float_of_int failed) (float_of_int attempted) in
  let extra = ("fail_ratio", Json.Float fail_ratio) :: extra in
  print_endline (Json.to_string (provenance ~passes ~extra));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     let value = Json.Float (if Float.is_finite v then v else 0.0) in
                     (name, Json.Obj [ ("value", value); ("unit", Json.String unit) ]))
                   metrics) );
          ]))

(* {1 Modes} *)

(* A set-up takes milliseconds, too little to time once, and the host's
   speed on this allocation-heavy work drifts by up to 2x in phases of a
   fraction of a second to many seconds. So set-up is timed in rounds of
   [k] set-ups, [k] chosen from the untimed first set-up so that a round
   lasts about [setup_round_s], spread over the run between the passes
   and taking [setup_share] of its time; a round gives the mean time per
   set-up, and setup_s is the median over rounds. A round starts with
   one untimed set-up, so that the copies a forked child makes of its
   parent's pages are made outside the timing, and each timed set-up
   starts from a fully collected heap, untimed, so that the garbage of
   earlier set-ups does not slow it. Returns the workload (from the
   first set-up), [k] and the round. *)
let setup_round_s = 0.1
let setup_share = 0.2

let setup_rounds ~host =
  let t0 = Hb.now () in
  let f = setup ~host in
  let k = max 1 (int_of_float (Float.ceil (setup_round_s /. (Hb.now () -. t0)))) in
  let round () =
    let (_ : unit -> unit) = setup ~host in
    let total = ref 0.0 in
    for _ = 1 to k do
      Gc.full_major ();
      let t0 = Hb.now () in
      let (_ : unit -> unit) = setup ~host in
      total := !total +. (Hb.now () -. t0)
    done;
    !total /. float_of_int k
  in
  (f, k, round)

(* [g ()] in a forked child that sends the result back through a pipe:
   the heap of the measured passes never holds what [g] allocates, so
   set-up rounds between passes change neither the passes' heap layout
   nor its peak (run in this process, even with a [Gc.compact] after
   each, they raised serve_backlog's peak heap from about 7 to 25-35
   MB). *)
let in_child g =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    let code =
      match g () with
      | t ->
        let oc = Unix.out_channel_of_descr w in
        Printf.fprintf oc "%h\n" t;
        close_out oc;
        0
      | exception _ -> 1
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = In_channel.input_line ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match line with Some l -> float_of_string l | None -> failwith "set-up round failed")

(* The first pass grows the heap to its working size; it is checked
   like any other but not timed. *)
let warm_up f = run_pass ~traced:false f

let untraced () =
  let f, k, round = setup_rounds ~host:Host_config.pynq_z2 in
  let warm = warm_up f in
  let setups = ref [] and setup_time = ref 0.0 and start = Hb.now () in
  let passes =
    repeat_for ~budget:!seconds (fun () ->
        while !setups = [] || !setup_time < setup_share *. (Hb.now () -. start) do
          let t0 = Hb.now () in
          setups := in_child round :: !setups;
          setup_time := !setup_time +. (Hb.now () -. t0)
        done;
        run_pass ~traced:false f)
  in
  let setups = List.rev !setups in
  emit ~passes ~tally:(tally (warm :: passes))
    ~extra:
      [
        ("warm_up_s", Json.Float warm.wall);
        ("setups_per_round", Json.Int k);
        ("setup_s_per_round", Json.List (List.map (fun t -> Json.Float t) setups));
      ]
    (end_to_end passes ~setup_s:(Hb.median setups))

(* The traced passes' spans, on one timeline, as a Chrome trace. *)
let write_spans passes =
  Chrome_trace.write_file !spans_file (List.concat_map (fun p -> p.events) passes)

(* An attribution pass: the same items on a SoC without the cache
   model. Pins are off (the counters change on purpose); outputs are
   still checked against Gold. *)
let without_caches () =
  Pins.enabled := false;
  let f = setup ~host:nocache in
  let p = run_pass ~traced:false f in
  Pins.enabled := true;
  p

(* The ROADMAP per-layer probe, outside the timed passes of every
   traced run: the 7_512_3_512_1 generated run at two output rows,
   timed with the cache model and without. Returns the metrics and the
   probe runs' tally. *)
let probe () =
  Hb.reset_pass ();
  let dt, da, c = Wl_kernels.probe ~host:Host_config.pynq_z2 ~seed:!seed in
  let dt_nc, _, _ = Wl_kernels.probe ~host:nocache ~seed:!seed in
  let words = c.Perf_counters.dma_words_sent +. c.Perf_counters.dma_words_received in
  ( [
      ("probe.sim.dma.words", "word", words);
      ("probe.sim.dma.ns_per_word", "ns/word", dt *. 1e9 /. words);
      ("probe.sim.alloc_per_dma_word", "word/word", da /. words);
      ("probe.sim.cache.est_s", "s", dt -. dt_nc);
    ],
    2,
    failed_items !Hb.failures )

(* The probe runs first, and its time counts into [--seconds]. *)
let traced () =
  let start = Hb.now () in
  let probe, probe_attempted, probe_failed = probe () in
  let f = setup ~host:Host_config.pynq_z2 in
  let warm = warm_up f in
  let half = Float.max 0.0 (!seconds -. (Hb.now () -. start)) /. 2.0 in
  let plain = run_for ~traced:false ~budget:half f in
  let traced = run_for ~traced:true ~budget:half f in
  if !spans_file <> "" then write_spans traced;
  let nc = without_caches () in
  (* the accounting check, one item: every pass reads the deterministic
     counts of the first untraced pass, and the spans cover the wall *)
  let reference = List.hd plain in
  let layers = List.map per_layer traced in
  let med name =
    Hb.median (List.map (fun l -> List.assoc name (List.map (fun (n, _, v) -> (n, v)) l)) layers)
  in
  let gap = med "trace.accounting_gap" in
  let moved =
    List.concat_map
      (fun p -> List.filter (fun k -> cnt p k <> cnt reference k) deterministic)
      (plain @ traced)
  in
  let accounting =
    (if moved = [] then []
     else
       [
         ( "accounting",
           "counts differ with tracing: " ^ String.concat ", " (List.sort_uniq compare moved) );
       ])
    @
    if gap > accounting_tolerance then
      [
        ( "accounting",
          Printf.sprintf "root spans miss %.1f%% of the pass wall time" (gap *. 100.0) );
      ]
    else []
  in
  let plain_wall = Hb.median (List.map (fun p -> p.wall) plain) in
  let traced_wall = Hb.median (List.map (fun p -> p.wall) traced) in
  let metrics =
    List.map (fun (n, u, _) -> (n, u, med n)) (List.hd layers)
    @ [
        ("sim.cache.est_s", "s", plain_wall -. nc.wall);
        ("trace.overhead_s", "s", traced_wall -. plain_wall);
      ]
    @ probe
  in
  emit ~passes:traced
    ~tally:
      (tally ~attempted:(1 + probe_attempted) ~failed:(failed_items accounting @ probe_failed)
         ((warm :: plain) @ traced @ [ nc ]))
    ~extra:
      [
        ("untraced_passes", Json.Int (List.length plain));
        ("traced_passes", Json.Int (List.length traced));
        ("accounting_tolerance", Json.Float accounting_tolerance);
      ]
    metrics

let write_pins () =
  Pins.own := None;
  Pins.fallback := None;
  let f = setup ~host:Host_config.pynq_z2 in
  let p = run_pass ~traced:false f in
  List.iter (fun (item, why) -> Printf.eprintf "FAIL %s: %s\n" item why) p.failed;
  if p.failed <> [] then exit 1;
  Pins.save !seed;
  Printf.printf "wrote %s (%d items)\n" (Pins.path !seed) (List.length !Pins.order)

(* The benchmark's own test: an unperturbed pass passes, a pass against
   a pin with one field nudged reports exactly that item, and the two
   pinned seeds agree on every seed-independent kernel statistic. *)
let self_test () =
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then exit 1
  in
  check "default and held-out pins agree on kernel statistics"
    (Pins.kernel_disagreements Pins.default_seed Pins.held_out_seed = []);
  let f = setup ~host:Host_config.pynq_z2 in
  let p = run_pass ~traced:false f in
  check "unperturbed pass has no failures" (p.failed = []);
  let table = Option.get !Pins.own in
  let label, fields = List.hd (List.sort compare (List.of_seq (Hashtbl.to_seq table))) in
  let nudged =
    List.map
      (function
        | k, Json.Float v -> (k, Json.Float (v +. 1.0))
        | k, Json.Int v -> (k, Json.Int (v + 1))
        | k, Json.String v -> (k, Json.String (v ^ "'"))
        | kv -> kv)
      fields
  in
  Hashtbl.replace table label nudged;
  Hashtbl.reset Pins.seen;
  let p = run_pass ~traced:false f in
  check
    (Printf.sprintf "perturbed pin of %s is reported as a failure" label)
    (List.map fst p.failed = [ label ])

let () =
  let set_trace n = if n = 0 || n = 1 then trace := n else raise (Arg.Bad "--trace takes 0 or 1") in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Int set_trace, "0|1 untraced or traced run");
      ("--pin", Arg.Set pin_mode, " write the pin file of the seed");
      ("--self-test", Arg.Set self_test_mode, " run the pin self-test");
      ("--pins", Arg.Set_string Pins.dir, "DIR pin directory");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory for the tune cache");
      ("--commit", Arg.Set_string commit, "C source commit (provenance)");
      ("--source-digest", Arg.Set_string source_digest, "D source digest (provenance)");
      ("--spans", Arg.Set_string spans_file, "FILE write the traced spans (Chrome trace JSON)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline usage;
    exit 2
  end;
  Pins.workload := !workload;
  Pins.use_seed !seed;
  if !pin_mode then write_pins ()
  else if !self_test_mode then self_test ()
  else if !trace = 1 then traced ()
  else untraced ()
