(* Tests for the asynchronous DMA timeline and the double-buffer
   software-pipelining pass: timeline determinism and tie-breaking,
   bit-compatibility of the blocking path, and the end-to-end overlap
   win (identical outputs, identical DMA traffic, fewer cycles). *)

let ( => ) name b = Alcotest.(check bool) name true b

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_determinism () =
  let build () =
    let tl = Timeline.create () in
    let dma = Timeline.add_agent tl ~name:"dma0" in
    let acc = Timeline.add_agent tl ~name:"accel" in
    let f1 = Timeline.schedule tl dma ~not_before:10.0 ~duration:100.0 ~label:"send" () in
    let f2 = Timeline.schedule tl acc ~not_before:f1 ~duration:50.0 ~label:"compute" () in
    let f3 = Timeline.schedule tl dma ~not_before:20.0 ~duration:30.0 ~label:"send" () in
    ( (f1, f2, f3),
      Timeline.makespan tl,
      List.map (fun e -> (e.Timeline.ev_label, e.Timeline.ev_start)) (Timeline.events tl)
    )
  in
  let a = build () and b = build () in
  Alcotest.(check bool) "two identical runs agree exactly" true (a = b);
  let (f1, f2, f3), makespan, _ = a in
  Alcotest.(check (float 0.0)) "first transfer" 110.0 f1;
  Alcotest.(check (float 0.0)) "dependent compute" 160.0 f2;
  (* the channel is busy until 110 even though the request came at 20 *)
  Alcotest.(check (float 0.0)) "channel serialises" 140.0 f3;
  Alcotest.(check (float 0.0)) "makespan is the last busy agent" 160.0 makespan

let test_timeline_tie_breaking () =
  (* Two events starting at the same instant order by issue sequence,
     not by agent identity or label. *)
  let tl = Timeline.create () in
  let a1 = Timeline.add_agent tl ~name:"z-agent" in
  let a2 = Timeline.add_agent tl ~name:"a-agent" in
  ignore (Timeline.schedule tl a1 ~not_before:5.0 ~duration:1.0 ~label:"zzz" ());
  ignore (Timeline.schedule tl a2 ~not_before:5.0 ~duration:1.0 ~label:"aaa" ());
  match Timeline.events tl with
  | [ e1; e2 ] ->
    Alcotest.(check string) "issue order wins the tie" "zzz" e1.Timeline.ev_label;
    Alcotest.(check string) "second issue second" "aaa" e2.Timeline.ev_label
  | es -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length es))

let test_timeline_reset () =
  let tl = Timeline.create () in
  let a = Timeline.add_agent tl ~name:"dma0" in
  ignore (Timeline.schedule tl a ~not_before:0.0 ~duration:42.0 ~label:"send" ());
  Timeline.reset tl;
  Alcotest.(check (float 0.0)) "clock rewinds" 0.0 (Timeline.busy_until a);
  Alcotest.(check (float 0.0)) "makespan rewinds" 0.0 (Timeline.makespan tl);
  Alcotest.(check int) "log clears" 0 (List.length (Timeline.events tl));
  (* agents stay registered: scheduling still works *)
  Alcotest.(check (float 0.0)) "agent still usable" 7.0
    (Timeline.schedule tl a ~not_before:0.0 ~duration:7.0 ~label:"send" ())

(* ------------------------------------------------------------------ *)
(* Blocking bit-compatibility                                          *)
(* ------------------------------------------------------------------ *)

(* The async subsystem must not move a single cycle of the blocking
   path: with double_buffer off, counters match a pre-recorded run of
   the same workload (any drift here is a cost-model regression). *)
let test_blocking_counters_regression () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:4 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:8 ~n:8 ~k:8 in
  let ir = Axi4mlir.compile_matmul bench ~m:8 ~n:8 ~k:8 () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ir ~a ~b ~c)
  in
  (* makespan of a blocking run is the host clock itself *)
  Alcotest.(check (float 0.0)) "task clock = host clock"
    counters.Perf_counters.cycles
    (Soc.task_clock_cycles bench.Axi4mlir.soc);
  Alcotest.(check (float 0.0)) "cycles" 508258.5 counters.Perf_counters.cycles;
  Alcotest.(check (float 0.0)) "dma words sent" 289.0 counters.Perf_counters.dma_words_sent;
  Alcotest.(check (float 0.0)) "dma words received" 128.0
    counters.Perf_counters.dma_words_received;
  Alcotest.(check (float 0.0)) "dma transactions" 41.0
    counters.Perf_counters.dma_transactions;
  Alcotest.(check (float 0.0)) "instructions" 2541.0 counters.Perf_counters.instructions

(* ------------------------------------------------------------------ *)
(* Engine token semantics                                              *)
(* ------------------------------------------------------------------ *)

(* A v3_2 engine: 2x2 tiles, so one operand load is an opcode and four
   data words. *)
let v3_2_engine () =
  let soc = Soc.create () in
  Accel_config.attach soc (Presets.matmul ~version:Accel_matmul.V3 ~size:2 ())

let stage_load engine ~offset opcode =
  Dma_engine.stage engine ~offset (Axi_word.Inst opcode);
  for i = 1 to 4 do
    Dma_engine.stage engine ~offset:(offset + i) (Axi_word.Data (float_of_int i))
  done

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* [f ()] must raise [Failure] whose message mentions [needle]. *)
let fails_with name needle f =
  match f () with
  | exception Failure msg ->
    Alcotest.(check bool) (Printf.sprintf "%s: %S mentions %S" name msg needle) true
      (contains msg needle)
  | _ -> Alcotest.fail (name ^ ": expected Failure")

(* Launch and retire [n] sends, as a long double-buffered run does. *)
let retire_sends engine n =
  for _ = 1 to n do
    stage_load engine ~offset:0 Isa.mm_load_a;
    ignore (Dma_engine.wait_token engine (Dma_engine.start_send_token engine))
  done

let test_pingpong_serialises_halves () =
  let engine = v3_2_engine () in
  (* Stage and launch a send from half 0, then immediately try to
     reuse the same words while the transfer is in flight. *)
  stage_load engine ~offset:0 Isa.mm_load_a;
  let tok = Dma_engine.start_send_token engine in
  Dma_engine.stage engine ~offset:0 (Axi_word.Inst Isa.mm_load_b);
  fails_with "reusing an in-flight half" "in flight" (fun () ->
      Dma_engine.start_send_token engine);
  ignore (Dma_engine.wait_token engine tok)

let test_wait_token_is_linear () =
  let engine = v3_2_engine () in
  stage_load engine ~offset:0 Isa.mm_load_a;
  let tok = Dma_engine.start_send_token engine in
  ignore (Dma_engine.wait_token engine tok);
  let wait tok () = Dma_engine.wait_token engine tok in
  fails_with "double wait" "already waited" (wait tok);
  fails_with "token never issued" "unknown token" (wait 999);
  fails_with "negative token" "unknown token" (wait (-1))

(* Waited flights leave the engine's table, so its checks must tell
   "waited long ago" from "never issued" by the token counter alone. *)
let test_linearity_after_many_tokens () =
  let engine = v3_2_engine () in
  retire_sends engine 5000;
  let wait tok () = Dma_engine.wait_token engine tok in
  fails_with "first of 5000 tokens" "already waited" (wait 0);
  fails_with "last of 5000 tokens" "already waited" (wait 4999);
  fails_with "next token, not yet issued" "unknown token" (wait 5000);
  Alcotest.(check (list int)) "nothing outstanding" [] (Dma_engine.outstanding_tokens engine);
  (* the in-flight overlap hazard still fires among thousands of
     retired flights on the same window *)
  stage_load engine ~offset:0 Isa.mm_load_a;
  let live = Dma_engine.start_send_token engine in
  Alcotest.(check (list int)) "one live flight" [ live ] (Dma_engine.outstanding_tokens engine);
  stage_load engine ~offset:0 Isa.mm_load_b;
  fails_with "overlap after retired flights" "in flight" (fun () ->
      Dma_engine.start_send_token engine);
  ignore (Dma_engine.wait_token engine live)

let test_reset_forgets_tokens () =
  let engine = v3_2_engine () in
  retire_sends engine 3;
  stage_load engine ~offset:0 Isa.mm_load_a;
  let unwaited = Dma_engine.start_send_token engine in
  Dma_engine.reset_device engine;
  Alcotest.(check (list int)) "reset drops live flights" []
    (Dma_engine.outstanding_tokens engine);
  let wait tok () = Dma_engine.wait_token engine tok in
  fails_with "pre-reset unwaited token" "unknown token" (wait unwaited);
  fails_with "pre-reset waited token" "unknown token" (wait 0)

(* Wait [tok] and keep only a weak pointer to the payload. Not inlined,
   so no stack slot of the caller keeps the array alive. *)
let[@inline never] wait_weakly engine tok =
  let data = Dma_engine.wait_token engine tok in
  Alcotest.(check int) "payload length" 4 (Array.length data);
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some data);
  weak

let test_waited_payload_not_retained () =
  let engine = v3_2_engine () in
  stage_load engine ~offset:0 Isa.mm_load_a;
  stage_load engine ~offset:5 Isa.mm_load_b;
  Dma_engine.stage engine ~offset:10 (Axi_word.Inst Isa.mm_compute);
  Dma_engine.stage engine ~offset:11 (Axi_word.Inst Isa.mm_drain);
  let send = Dma_engine.start_send_token engine in
  let recv = Dma_engine.start_recv_token engine ~len_words:4 in
  ignore (Dma_engine.wait_token engine send);
  let weak = wait_weakly engine recv in
  Gc.full_major ();
  "the engine dropped the waited payload" => not (Weak.check weak 0);
  (* the engine itself is still live here *)
  Alcotest.(check (list int)) "nothing outstanding" [] (Dma_engine.outstanding_tokens engine)

(* ------------------------------------------------------------------ *)
(* End-to-end double buffering                                         *)
(* ------------------------------------------------------------------ *)

let run_matmul options ~m ~n ~k =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m ~n ~k in
  let ir = Axi4mlir.compile_matmul bench ~options ~m ~n ~k () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  Alcotest.(check (list int)) "every token waited by the end of the run" []
    (Dma_engine.outstanding_tokens bench.Axi4mlir.engine);
  (counters, Memref_view.to_array c, ir)

let test_double_buffer_pipelines_and_wins () =
  let m, n, k = (64, 64, 64) in
  let blocking, out_b, _ = run_matmul Axi4mlir.default_codegen ~m ~n ~k in
  let db, out_d, ir =
    run_matmul { Axi4mlir.default_codegen with double_buffer = true } ~m ~n ~k
  in
  (* the pass really fired: the lowered IR carries async runtime calls *)
  let calls name =
    Ir.count_ops
      (fun o ->
        o.Ir.name = "func.call" && Ir.attr o "callee" = Some (Attribute.Str name))
      ir
  in
  "start_send calls present" => (calls Runtime_abi.dma_start_send_async > 0);
  "wait calls present" => (calls Runtime_abi.dma_wait > 0);
  (* byte-identical outputs *)
  "identical outputs" => (out_b = out_d);
  (* identical DMA traffic *)
  Alcotest.(check (float 0.0)) "words sent" blocking.Perf_counters.dma_words_sent
    db.Perf_counters.dma_words_sent;
  Alcotest.(check (float 0.0)) "words received" blocking.Perf_counters.dma_words_received
    db.Perf_counters.dma_words_received;
  Alcotest.(check (float 0.0)) "transactions" blocking.Perf_counters.dma_transactions
    db.Perf_counters.dma_transactions;
  (* and the ISSUE's headline: >= 15% fewer task-clock cycles *)
  let speedup = blocking.Perf_counters.cycles /. db.Perf_counters.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "double buffering wins >= 15%% (speedup %.3fx)" speedup)
    true (speedup >= 1.15)

let test_double_buffer_accel_level_matches_runtime_level () =
  let options =
    { Axi4mlir.default_codegen with double_buffer = true; to_runtime_calls = false }
  in
  let _, out_accel, ir = run_matmul options ~m:32 ~n:32 ~k:32 in
  "accel-level IR has token ops"
  => (Ir.count_ops (fun o -> o.Ir.name = "accel.start_send") ir > 0);
  let _, out_runtime, _ =
    run_matmul { options with to_runtime_calls = true } ~m:32 ~n:32 ~k:32
  in
  "levels agree" => (out_accel = out_runtime)

let test_token_ops_roundtrip () =
  (* printed token ops (and the !accel.token type) parse back and
     re-print identically *)
  let options =
    { Axi4mlir.default_codegen with double_buffer = true; to_runtime_calls = false }
  in
  let _, _, ir = run_matmul options ~m:32 ~n:32 ~k:32 in
  let printed = Printer.to_generic ir in
  let reparsed = Parser_ir.parse_op printed in
  Alcotest.(check string) "print -> parse -> print is stable" printed
    (Printer.to_generic reparsed);
  "reparsed module still has token ops"
  => (Ir.count_ops (fun o -> o.Ir.name = "accel.start_send") reparsed > 0);
  match Verifier.verify reparsed with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("reparsed async module fails verification: " ^ msg)

let test_overlap_ratio_reported () =
  let accel = Presets.matmul ~version:Accel_matmul.V3 ~size:16 ~flow:"Ns" () in
  let bench = Axi4mlir.create accel in
  ignore (Axi4mlir.enable_tracing bench);
  let options = { Axi4mlir.default_codegen with double_buffer = true } in
  let a, b, c = Axi4mlir.alloc_matmul_operands bench ~m:32 ~n:32 ~k:32 in
  let ir = Axi4mlir.compile_matmul bench ~options ~m:32 ~n:32 ~k:32 () in
  let counters =
    Axi4mlir.measure bench (fun () -> Axi4mlir.run_matmul bench ~options ir ~a ~b ~c)
  in
  let events = Trace.events (Axi4mlir.tracer bench) in
  (match Perf_report.overlap_ratio ~total:(Perf_counters.fields counters) events with
  | Some r -> "async work overlaps the run" => (r > 0.0)
  | None -> Alcotest.fail "no async tracks recorded");
  (* flow arrows bind each start to its wait *)
  let flow_starts =
    List.filter
      (fun e -> match e.Trace.ev_kind with Trace.Flow_start _ -> true | _ -> false)
      events
  in
  let flow_finishes =
    List.filter
      (fun e -> match e.Trace.ev_kind with Trace.Flow_finish _ -> true | _ -> false)
      events
  in
  "flow arrows emitted" => (List.length flow_starts > 0);
  Alcotest.(check int) "every arrow lands" (List.length flow_starts)
    (List.length flow_finishes)

let tests =
  [
    Alcotest.test_case "timeline is deterministic" `Quick test_timeline_determinism;
    Alcotest.test_case "timeline ties break by issue order" `Quick test_timeline_tie_breaking;
    Alcotest.test_case "timeline reset" `Quick test_timeline_reset;
    Alcotest.test_case "blocking counters unchanged (regression)" `Quick
      test_blocking_counters_regression;
    Alcotest.test_case "ping/pong halves serialise" `Quick test_pingpong_serialises_halves;
    Alcotest.test_case "tokens are linear at the engine" `Quick test_wait_token_is_linear;
    Alcotest.test_case "linearity holds after 5000 retired tokens" `Quick
      test_linearity_after_many_tokens;
    Alcotest.test_case "reset_device forgets every token" `Quick test_reset_forgets_tokens;
    Alcotest.test_case "waited recv payloads are not retained" `Quick
      test_waited_payload_not_retained;
    Alcotest.test_case "double buffering: same outputs, same words, >=15% faster" `Quick
      test_double_buffer_pipelines_and_wins;
    Alcotest.test_case "accel-level and runtime-level async agree" `Quick
      test_double_buffer_accel_level_matches_runtime_level;
    Alcotest.test_case "token ops round-trip through the parser" `Quick
      test_token_ops_roundtrip;
    Alcotest.test_case "overlap ratio and flow arrows in the trace" `Quick
      test_overlap_ratio_reported;
  ]
