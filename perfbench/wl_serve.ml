(* serve_backlog: a long saturated request stream over a few
   single-kernel models on two accelerators, served under fifo, sjf and
   batch. The stream is offered at twice the fleet's capacity, so the
   backlog grows for the whole run. Each pass starts from a cold
   oracle, as every serving run does. *)

let specs = [ "matmul:32,32,32"; "matmul:64,32,32"; "conv:8,8,8,3" ]
let accels = 2
let batch_max = 2
let requests_per_policy = 2000

let models () =
  match Serve_cost.models_of_specs specs with Ok m -> m | Error msg -> failwith msg

(* Oracle calls of the current pass. *)
let calls = ref 0

(* The service and predict closures handed to [Serve_sim.run], wrapped:
   every call is counted, and a service call that missed the memo had
   to compile and simulate its kernel, whose DMA words and cycles are
   counted and pinned (they do not depend on the seed). A traced pass
   also sums the time inside the calls, rather than recording spans:
   the scheduler makes about a million calls per pass. Untraced, a call
   adds one counter increment and one read of the memo's miss count. *)
let wrapped oracle =
  let seen = ref (snd (Serve_cost.memo_stats oracle)) in
  let missed () =
    let m = snd (Serve_cost.memo_stats oracle) in
    let fresh = m > !seen in
    seen := m;
    fresh
  in
  let check_miss model ~batch cycles words =
    Hb.count "serve.miss_words" words;
    incr Hb.attempted;
    Pins.check ~seeded:false
      (Printf.sprintf "serve/kernel/%s/b%d" model batch)
      [ ("cycles", Json.Float cycles); ("dma_words", Json.Float words) ]
  in
  let service model ~batch =
    incr calls;
    if not (Hb.tracing ()) then begin
      let cycles, words = Serve_cost.service_parts oracle model ~batch in
      if missed () then check_miss model ~batch cycles words;
      cycles
    end
    else begin
      let t0 = Hb.now () and a0 = Hb.alloc_words () in
      let cycles, words = Serve_cost.service_parts oracle model ~batch in
      let dt = Hb.now () -. t0 in
      Hb.count "serve.oracle_call_s" dt;
      if missed () then begin
        Hb.count "serve.miss_s" dt;
        Hb.count "serve.miss_alloc" (Hb.alloc_words () -. a0);
        check_miss model ~batch cycles words
      end;
      cycles
    end
  in
  let predict model =
    incr calls;
    let t0 = if Hb.tracing () then Hb.now () else 0.0 in
    let p = Serve_cost.predict oracle model in
    if Hb.tracing () then Hb.count "serve.oracle_call_s" (Hb.now () -. t0);
    (* a predict miss runs no kernel: only keep [seen] in step *)
    ignore (missed ());
    p
  in
  (service, predict)

(* Everything the schedule decided, folded into a few pinned numbers
   and an MD5 of the per-request records. *)
let digest (o : Serve_sim.outcome) =
  let b = Buffer.create 4096 in
  let latency = ref 0.0 in
  List.iter
    (fun (r : Serve_sim.request_stat) ->
      latency := !latency +. (r.Serve_sim.rs_finish -. r.Serve_sim.rs_arrival);
      Printf.bprintf b "%d %d %d %h %h;" r.Serve_sim.rs_id r.Serve_sim.rs_accel
        r.Serve_sim.rs_batch r.Serve_sim.rs_start r.Serve_sim.rs_finish)
    o.Serve_sim.oc_completed;
  [
    ("completed", Json.Int (List.length o.Serve_sim.oc_completed));
    ("rejected", Json.Int (List.length o.Serve_sim.oc_rejected));
    ("dispatches", Json.Int o.Serve_sim.oc_dispatches);
    ("makespan", Json.Float o.Serve_sim.oc_makespan);
    ("latency_sum", Json.Float !latency);
    ("digest", Json.String (Digest.to_hex (Digest.string (Buffer.contents b))));
  ]

let serve_backlog ~host:_ ~seed =
  let models = models () in
  (* the offered rate comes from the kernels' service times, which a
     warm set-up oracle measures once *)
  let warm = Serve_cost.create models in
  let mean_service =
    List.fold_left (fun acc s -> acc +. Serve_cost.service warm s ~batch:1) 0.0 specs
    /. float_of_int (List.length specs)
  in
  let stream =
    {
      Serve_request.st_seed = seed;
      st_count = requests_per_policy;
      st_mean_gap = mean_service /. (float_of_int accels *. 2.0);
      st_models = specs;
    }
  in
  let requests =
    match Serve_request.generate stream with Ok r -> r | Error msg -> failwith msg
  in
  fun () ->
    calls := 0;
    let oracle = Hb.span "serve.oracle" (fun () -> Serve_cost.create models) in
    let service, predict = wrapped oracle in
    List.iter
      (fun policy ->
        let label = "serve/" ^ Serve_policy.to_string policy in
        Hb.item label (fun () ->
            let params =
              {
                Serve_sim.sp_accels = accels;
                sp_policy = policy;
                sp_queue_cap = None;
                sp_batch_max = batch_max;
              }
            in
            match
              Hb.span ~item:label "serve.run" (fun () ->
                  Serve_sim.run ~service ~predict params requests)
            with
            | Error msg -> Hb.fail label msg
            | Ok o ->
              Hb.span ~item:label "glue.check" (fun () ->
                  let done_ = List.length o.Serve_sim.oc_completed in
                  let rejected = List.length o.Serve_sim.oc_rejected in
                  if done_ + rejected <> requests_per_policy then
                    Hb.fail label
                      (Printf.sprintf "completed %d + rejected %d <> offered %d" done_ rejected
                         requests_per_policy);
                  Hb.count "serve.requests" (float_of_int (done_ + rejected));
                  Hb.count "serve.dispatches" (float_of_int o.Serve_sim.oc_dispatches);
                  Pins.check ~seeded:true label (digest o))))
      Serve_policy.all;
    let hits, misses = Serve_cost.memo_stats oracle in
    Hb.count "serve.memo_hits" (float_of_int hits);
    Hb.count "serve.memo_misses" (float_of_int misses);
    Hb.count "serve.oracle_calls" (float_of_int !calls)
