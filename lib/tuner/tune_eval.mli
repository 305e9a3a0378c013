(** One candidate through the real pipeline: build the workload module,
    compile it with the candidate's codegen options on a fresh
    simulated SoC, run it, and read the performance counters.

    This is the expensive leg of the tuner — everything in
    {!Tune_prune} exists to avoid calling it. Each successful call
    bumps the ["tuner_evaluations"] metrics counter (the counter the
    warm-cache test pins at zero) and, when a tracer is given, records
    a complete event on {!Trace.tuner_track} spanning the evaluation's
    host-process time.

    A pipeline rejection (the matcher refusing to offload, a pass
    failure) is an [Error], not an exception: rejected candidates are a
    normal part of design-space exploration and are cached like any
    other outcome. *)

type outcome = {
  ev_cycles : float;  (** simulated host cycles of the measured run *)
  ev_counters : Perf_counters.t;
  ev_bottleneck : string option;
      (** the binding resource ("host" | "dma" | "accel") the perf
          doctor attributes the run's critical path to; [None] when the
          analysis failed. Only fresh evaluations carry it — the tune
          cache does not persist bottlenecks. *)
}

val measure :
  ?host:Host_config.t ->
  ?images:int ->
  ?measure:(Axi4mlir.t -> (unit -> unit) -> Perf_counters.t) ->
  Accel_config.t ->
  Axi4mlir.codegen_options ->
  Tune_workload.t ->
  (Perf_counters.t * Axi4mlir.t, string) result
(** The one compile+simulate path from a workload to counters: allocate
    the operands on a fresh SoC for [config], compile with [options]
    ([compile_matmul], or [build_conv_module] + [compile]), and run the
    kernel under [measure] (default {!Axi4mlir.measure}; the bench
    passes its recording wrapper). Conv workloads run [images] images
    (default 1) under the specialised copy strategy (the
    hand-written-driver default). Returns the counters and the SoC the
    run left behind (its timeline feeds the perf doctor); a pipeline
    rejection is an [Error]. Not counted as a tuner evaluation. *)

val evaluate :
  ?host:Host_config.t ->
  ?tracer:Trace.t ->
  Tune_workload.t ->
  Tune_space.candidate ->
  (outcome, string) result
(** {!measure} the candidate's configuration and codegen options on the
    workload. [tracer] is the {e tuning} tracer (tuner track), not the simulated
    SoC's. *)

val diagnose :
  ?host:Host_config.t ->
  Tune_workload.t ->
  Tune_space.candidate ->
  (Doctor.diagnosis, string) result
(** Re-run the candidate (one full compile+simulate, uncached and not
    counted as a tuner evaluation) and hand the measured run to the
    perf doctor. Used by [axi4mlir-tune --doctor] to diagnose the
    winning configuration. *)
