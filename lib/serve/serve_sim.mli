(** The serving scheduler: dispatch a request stream across K
    accelerator instances on the simulated clock.

    Built on {!Timeline}: each accelerator instance is a timeline
    agent, a dispatch is one [Timeline.schedule] call (so the makespan
    and event log come from the same deterministic machinery the async
    DMA paths use), and every time-keeping decision is pure arithmetic
    on the simulated cycle clock — no wall time anywhere.

    The event loop is work-conserving by construction: whenever any
    request is queued, the earliest-free accelerator (ties broken by
    lowest index) is given work at
    [max (free time) (earliest queued arrival)]. The policy only
    chooses {e which} queued request(s) that accelerator takes — see
    {!Serve_policy}. Admission control is optional: with
    [sp_queue_cap = Some c], a request arriving while [c] or more
    admitted requests are still in flight (queued or executing) is
    rejected instead of queued.

    Invariants the test suite enforces (see [test/suite_serve.ml]):

    - {e conservation}: every generated request is completed or
      rejected, exactly once;
    - {e work conservation}: no accelerator has an idle gap that
      overlaps any completed request's queueing window
      [[arrival, start)];
    - {e FIFO order}: under [Fifo], each accelerator serves requests
      in arrival order;
    - {e accounting}: the per-accelerator busy cycles each fit inside
      the makespan, so their sum is at most [makespan * K]. *)

type params = {
  sp_accels : int;  (** accelerator instances; [>= 1] *)
  sp_policy : Serve_policy.t;
  sp_queue_cap : int option;
      (** max admitted-but-unfinished requests; [None] = unbounded *)
  sp_batch_max : int;
      (** max requests coalesced per [Batch] dispatch; [>= 1];
          ignored by [Fifo]/[Sjf] (always 1) *)
}

type request_stat = {
  rs_id : int;
  rs_model : string;
  rs_arrival : float;
  rs_accel : int;  (** serving accelerator index *)
  rs_batch : int;  (** size of the dispatch this request rode in *)
  rs_start : float;  (** service start (shared by the whole batch) *)
  rs_finish : float;  (** service finish (shared by the whole batch) *)
}

type rejection = { rj_id : int; rj_model : string; rj_arrival : float }

type accel_stat = {
  ac_id : int;
  ac_busy : float;  (** cycles spent serving *)
  ac_dispatches : int;  (** kernel invocations *)
  ac_requests : int;  (** requests served (>= dispatches under Batch) *)
}

type outcome = {
  oc_completed : request_stat list;  (** sorted by [rs_id] *)
  oc_rejected : rejection list;  (** sorted by [rj_id] *)
  oc_accels : accel_stat list;  (** by [ac_id] *)
  oc_makespan : float;  (** latest service finish; [0] if nothing ran *)
  oc_dispatches : int;
}

val validate : params -> (unit, string) result

val run :
  ?telemetry:Serve_telemetry.t ->
  ?service_at:(accel:int -> string -> batch:int -> float) ->
  ?predict_at:(accel:int -> string -> float) ->
  service:(string -> batch:int -> float) ->
  predict:(string -> float) ->
  params ->
  Serve_request.t list ->
  (outcome, string) result
(** Serve the stream to completion. [service model ~batch] is the
    cycles one dispatch costs (must be positive — a zero-cost kernel
    would let the loop spin without advancing time); [predict model]
    is the SJF ranking key. Both are injectable so property tests can
    drive the scheduler with synthetic oracles; production callers
    pass {!Serve_cost.service}/{!Serve_cost.predict}. [Error] on
    invalid params or a non-positive service time.

    [service_at] / [predict_at] make the fleet {e heterogeneous}: when
    given, the dispatch site uses [f ~accel:idx] for the instance the
    work-conserving rule just selected, so each slot can carry a
    different engine (a {!Platform_ir} instance list). SJF ranking and
    batch fair-share sizing then use the {e serving instance}'s
    predictions. When absent, the uniform [service]/[predict] are used
    unchanged — a homogeneous platform run takes the identical code
    path and produces a bit-identical outcome.

    [telemetry], when given, receives every arrival, rejection,
    dispatch and completion as it happens on the simulated clock
    ({!Serve_telemetry}); when absent each hook site is one match on
    an immediate — the zero-cost-when-disabled discipline of
    {!Trace}/{!Metrics}. Recording never influences scheduling, so an
    observed run's outcome is bit-identical to an unobserved one.

    [predict] and [predict_at] must be pure: a run asks each for a
    model's prediction at most once per (instance, model) — once per
    model when [predict_at] is absent — and reuses the answer. Each
    dispatch makes exactly one [service]/[service_at] call.

    Cost: O((requests + dispatches) · models · log requests) host time.
    The queue is indexed by arrival rank (an ordered set overall, and
    per model a rank set, an id set and a count), so no pick rescans
    the queue. The one exception is [Batch]'s fair-share total, an
    arrival-order fold over the queue that stops once the share reaches
    the batch limit; it runs to the end only when the backlog is short
    of that limit or a queued model's prediction is not positive and
    finite.

    [Error "duplicate request id N"] when two requests share an id
    (outcomes are keyed by id), [Error "non-finite arrival for request
    N"] when an arrival is NaN or infinite. *)
