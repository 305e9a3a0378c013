(* The serving event loop: K timeline agents, a policy-ordered queue,
   optional admission control. Deterministic: every tie is broken by
   index or arrival order, and time only ever moves forward. *)

type params = {
  sp_accels : int;
  sp_policy : Serve_policy.t;
  sp_queue_cap : int option;
  sp_batch_max : int;
}

type request_stat = {
  rs_id : int;
  rs_model : string;
  rs_arrival : float;
  rs_accel : int;
  rs_batch : int;
  rs_start : float;
  rs_finish : float;
}

type rejection = { rj_id : int; rj_model : string; rj_arrival : float }

type accel_stat = {
  ac_id : int;
  ac_busy : float;
  ac_dispatches : int;
  ac_requests : int;
}

type outcome = {
  oc_completed : request_stat list;
  oc_rejected : rejection list;
  oc_accels : accel_stat list;
  oc_makespan : float;
  oc_dispatches : int;
}

let validate p =
  if p.sp_accels < 1 then
    Error (Printf.sprintf "need at least one accelerator instance (got %d)" p.sp_accels)
  else if p.sp_batch_max < 1 then
    Error (Printf.sprintf "batch size limit must be >= 1 (got %d)" p.sp_batch_max)
  else
    match p.sp_queue_cap with
    | Some cap when cap < 1 ->
      Error (Printf.sprintf "queue capacity must be >= 1 (got %d)" cap)
    | _ -> Ok ()

exception Bad_service of string

module Ints = Set.Make (Int)
module Finishes = Map.Make (Float)

(* The queue is indexed by arrival rank (position in the sorted
   arrivals): a global rank set (Fifo head, decision time, the exact
   fair-share fold), per model a rank set and a count (the Batch cohort)
   and an id set (the Sjf candidate). Every pick equals an arrival-order
   scan over the whole queue (the reference in test/suite_serve.ml) at
   O(models · log n): ids are unique, so each policy's order has one
   minimum. *)
let run ?telemetry ?service_at ?predict_at ~service ~predict p
    (requests : Serve_request.t list) =
  let arr =
    Array.of_list
      (List.stable_sort
         (fun (a : Serve_request.t) (b : Serve_request.t) ->
           compare (a.Serve_request.rq_arrival, a.rq_id) (b.rq_arrival, b.rq_id))
         requests)
  in
  let n = Array.length arr in
  let rank_of_id = Hashtbl.create n in
  (* outcomes are keyed by id, and a NaN or infinite arrival would
     stall the clock: both are rejected up front *)
  let invalid = ref None in
  let flag msg = if !invalid = None then invalid := Some msg in
  Array.iteri
    (fun rank (r : Serve_request.t) ->
      if not (Float.is_finite r.Serve_request.rq_arrival) then
        flag (Printf.sprintf "non-finite arrival for request %d" r.rq_id);
      if Hashtbl.mem rank_of_id r.rq_id then
        flag (Printf.sprintf "duplicate request id %d" r.rq_id)
      else Hashtbl.add rank_of_id r.rq_id rank)
    arr;
  match (validate p, !invalid) with
  | (Error _ as e), _ -> e
  | Ok (), Some msg -> Error msg
  | Ok (), None -> (
    (* Heterogeneity hooks: the accelerator index is known (earliest
       free) before the policy picks, so a per-instance oracle slots in
       at the dispatch site. Absent overrides fall back to the uniform
       oracles — the homogeneous path runs the exact same code. *)
    let service_for idx =
      match service_at with None -> service | Some f -> f ~accel:idx
    in
    (* Zero-cost when disabled: one match on an immediate per hook site,
       exactly the Trace/Metrics discipline. Recording never feeds back
       into scheduling decisions. *)
    let tel f = match telemetry with None -> () | Some tlm -> f tlm in
    let tl = Timeline.create () in
    let agents =
      Array.init p.sp_accels (fun i ->
          Timeline.add_agent tl ~name:(Printf.sprintf "accel%d" i))
    in
    let busy = Array.make p.sp_accels 0.0 in
    let dispatches = Array.make p.sp_accels 0 in
    let served = Array.make p.sp_accels 0 in
    (* models by first arrival; [mid.(rank)] is the request's model *)
    let model_ix = Hashtbl.create 8 in
    let mid =
      Array.map
        (fun (r : Serve_request.t) ->
          match Hashtbl.find_opt model_ix r.Serve_request.rq_model with
          | Some m -> m
          | None ->
            let m = Hashtbl.length model_ix in
            Hashtbl.add model_ix r.rq_model m;
            m)
        arr
    in
    let models = Hashtbl.length model_ix in
    let names = Array.make models "" in
    Hashtbl.iter (fun name m -> names.(m) <- name) model_ix;
    (* one prediction per (instance, model) and run, on first use *)
    let preds =
      Array.make_matrix
        (match predict_at with None -> 1 | Some _ -> p.sp_accels)
        models None
    in
    let pred idx m =
      let row = preds.(match predict_at with None -> 0 | Some _ -> idx) in
      match row.(m) with
      | Some v -> v
      | None ->
        let v =
          match predict_at with
          | None -> predict names.(m)
          | Some f -> f ~accel:idx names.(m)
        in
        row.(m) <- Some v;
        v
    in
    let next = ref 0 in
    let queued = ref Ints.empty in
    let qlen = ref 0 in
    let by_rank = Array.make models Ints.empty in
    let by_id = Array.make models Ints.empty in
    let count = Array.make models 0 in
    (* add rank [r] to, or remove it from, every queue index *)
    let index ~add r =
      let m = mid.(r) and step = if add then Ints.add else Ints.remove in
      let d = if add then 1 else -1 in
      queued := step r !queued;
      qlen := !qlen + d;
      by_rank.(m) <- step r by_rank.(m);
      by_id.(m) <- step arr.(r).Serve_request.rq_id by_id.(m);
      count.(m) <- count.(m) + d
    in
    let completed = ref [] in
    let rejected = ref [] in
    (* finish time -> dispatched requests finishing then, for the
       in-flight count. Query times never decrease ([admit_up_to now]
       admits every arrival <= [now], and [now] only grows) and every
       finish lies at or after the [now] it was scheduled at, so a
       finish <= the query time is dropped for good. *)
    let finishes = ref Finishes.empty in
    let running_after = ref 0 in
    let in_flight_at t =
      let rec drop () =
        match Finishes.min_binding_opt !finishes with
        | Some (f, c) when f <= t ->
          finishes := Finishes.remove f !finishes;
          running_after := !running_after - c;
          drop ()
        | _ -> ()
      in
      drop ();
      !qlen + !running_after
    in
    let admit_up_to now =
      while !next < n && arr.(!next).Serve_request.rq_arrival <= now do
        let a = arr.(!next) in
        tel (fun tlm -> Serve_telemetry.on_arrival tlm ~at:a.rq_arrival);
        let admitted =
          match p.sp_queue_cap with
          | None -> true
          | Some cap -> in_flight_at a.rq_arrival < cap
        in
        if admitted then index ~add:true !next
        else begin
          rejected :=
            { rj_id = a.rq_id; rj_model = a.rq_model; rj_arrival = a.rq_arrival }
            :: !rejected;
          tel (fun tlm -> Serve_telemetry.on_reject tlm ~at:a.rq_arrival)
        end;
        incr next
      done
    in
    (* Batch sizing: a dispatch never coalesces more predicted work than
       an even share of the backlog's predicted total (sum of [predict]
       over the queue, divided by K). Under saturating load the share
       covers many requests and full [sp_batch_max] batches form; when
       the stream drains, the cap shrinks the lumps so the last
       dispatches spread across the accelerators instead of parking the
       whole tail on one — batching must never lose the makespan to
       load imbalance it created itself.

       The backlog total is the arrival-order left fold over the queue,
       and only [min sp_batch_max (floor share)] is used. With positive
       finite predictions the rounded partial sums never decrease, and
       neither does their share, so the fold stops once its floor
       reaches the cap. The full total it leaves uncomputed is a fold of
       [qlen] terms each at most [pmax], so within a factor 2 of [qlen *
       pmax]: [share (qlen * pmax) < 2^61] keeps its share below the
       2^62 where [int_of_float] stops being exact. Otherwise the whole
       fold runs. *)
    let fair_count idx per_request =
      let share work = work /. float_of_int p.sp_accels /. per_request in
      let positive = ref true and pmax = ref 0.0 in
      for m = 0 to models - 1 do
        if count.(m) > 0 then begin
          let pm = pred idx m in
          if pm > 0.0 && pm < infinity then pmax := Float.max !pmax pm
          else positive := false
        end
      done;
      let can_stop = !positive && share (float_of_int !qlen *. !pmax) < 0x1p61 in
      let cap = float_of_int p.sp_batch_max in
      let rec fold acc ranks =
        match ranks () with
        | Seq.Cons (r, rest) when not (can_stop && share acc >= cap) ->
          fold (acc +. pred idx mid.(r)) rest
        | _ -> acc
      in
      int_of_float (floor (share (fold 0.0 (Ints.to_seq !queued))))
    in
    (* Policy selection; returns the picked ranks in arrival order. *)
    let pick idx =
      let head = Ints.min_elt !queued in
      match p.sp_policy with
      | Serve_policy.Fifo -> [ head ]
      | Serve_policy.Sjf ->
        (* least (prediction, id); starting from the head keeps a
           NaN-predicted head in place, as a [<] scan would *)
        let key r = (pred idx mid.(r), arr.(r).Serve_request.rq_id) in
        let best = ref head in
        for m = 0 to models - 1 do
          if count.(m) > 0 then begin
            let r = Hashtbl.find rank_of_id (Ints.min_elt by_id.(m)) in
            if key r < key !best then best := r
          end
        done;
        [ !best ]
      | Serve_policy.Batch ->
        (* the model with the most ready requests wins; ties go to the
           one whose earliest request arrived first (lowest id) *)
        let first_id m = arr.(Ints.min_elt by_rank.(m)).Serve_request.rq_id in
        let chosen = ref mid.(head) in
        for m = 0 to models - 1 do
          let c = count.(m) and bc = count.(!chosen) in
          if c > bc || (c = bc && first_id m < first_id !chosen) then chosen := m
        done;
        let per_request = pred idx !chosen in
        let fair =
          if per_request > 0.0 then fair_count idx per_request else p.sp_batch_max
        in
        List.of_seq
          (Seq.take (max 1 (min p.sp_batch_max fair)) (Ints.to_seq by_rank.(!chosen)))
    in
    let earliest_free () =
      let best = ref 0 in
      for i = 1 to p.sp_accels - 1 do
        if Timeline.busy_until agents.(i) < Timeline.busy_until agents.(!best) then
          best := i
      done;
      !best
    in
    let now = ref 0.0 in
    let running = ref true in
    match
      while !running do
        if !qlen = 0 then begin
          if !next >= n then running := false
          else begin
            now := Float.max !now arr.(!next).Serve_request.rq_arrival;
            admit_up_to !now
          end
        end
        else begin
          let idx = earliest_free () in
          (* the queue head carries the earliest arrival: the
             accelerator can start then at the earliest. Requests
             arriving before that decision time are admitted first so
             the policy sees them. *)
          let t_d =
            Float.max
              (Timeline.busy_until agents.(idx))
              arr.(Ints.min_elt !queued).Serve_request.rq_arrival
          in
          now := Float.max !now t_d;
          admit_up_to !now;
          let ranks = pick idx in
          List.iter (index ~add:false) ranks;
          let batch = List.map (fun r -> arr.(r)) ranks in
          let model = (List.hd batch).Serve_request.rq_model in
          let b = List.length batch in
          let dur = service_for idx model ~batch:b in
          if not (dur > 0.0) then
            raise
              (Bad_service
                 (Printf.sprintf "service cycles must be positive (%s, batch %d: %g)"
                    model b dur));
          let finish =
            Timeline.schedule tl agents.(idx) ~not_before:!now ~duration:dur
              ~label:(Printf.sprintf "%s x%d" model b)
              ()
          in
          let start = finish -. dur in
          busy.(idx) <- busy.(idx) +. dur;
          dispatches.(idx) <- dispatches.(idx) + 1;
          served.(idx) <- served.(idx) + b;
          finishes :=
            Finishes.update finish
              (fun c -> Some (b + Option.value c ~default:0))
              !finishes;
          running_after := !running_after + b;
          List.iter
            (fun (r : Serve_request.t) ->
              completed :=
                {
                  rs_id = r.Serve_request.rq_id;
                  rs_model = r.rq_model;
                  rs_arrival = r.rq_arrival;
                  rs_accel = idx;
                  rs_batch = b;
                  rs_start = start;
                  rs_finish = finish;
                }
                :: !completed)
            batch;
          tel (fun tlm ->
              (* queue depth after removal, in-flight including the
                 batch just scheduled (its finish is in the future) *)
              Serve_telemetry.on_dispatch tlm ~at:!now ~accel:idx ~start ~finish
                ~queue:!qlen ~in_flight:(in_flight_at !now);
              List.iter
                (fun (r : Serve_request.t) ->
                  Serve_telemetry.on_complete tlm ~finish
                    ~latency:(finish -. r.Serve_request.rq_arrival))
                batch)
        end
      done
    with
    | () ->
      let by_id f g = compare (f : int) g in
      Ok
        {
          oc_completed =
            List.sort (fun a b -> by_id a.rs_id b.rs_id) !completed;
          oc_rejected = List.sort (fun a b -> by_id a.rj_id b.rj_id) !rejected;
          oc_accels =
            List.init p.sp_accels (fun i ->
                {
                  ac_id = i;
                  ac_busy = busy.(i);
                  ac_dispatches = dispatches.(i);
                  ac_requests = served.(i);
                });
          oc_makespan = Timeline.makespan tl;
          oc_dispatches = Array.fold_left ( + ) 0 dispatches;
        }
    | exception Bad_service msg -> Error msg)
