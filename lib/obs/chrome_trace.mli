(** Chrome [trace_event] JSON export.

    Serialises {!Trace.event}s into the JSON-array-of-objects format
    that Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and
    chrome://tracing load directly: one [X]/[B]/[E]/[i] record per
    event, grouped under two processes — pid 1 is the simulated SoC
    (threads: host, accelerator, dma) and pid 2 the compiler (pass
    pipeline).

    Chrome timestamps are microseconds. Simulated-SoC events are
    recorded in CPU cycles, so pass [cpu_freq_mhz] to convert (cycles
    per microsecond = MHz); without it, raw cycle values are written
    as-if-microseconds, which preserves every relative proportion.
    Events on {!Trace.compile_track} are already in microseconds and
    are never scaled. *)

val to_json :
  ?cpu_freq_mhz:float -> ?track_names:(int * string) list -> Trace.event list -> Json.t
(** The full document: [{"traceEvents": [...], "displayTimeUnit": "ms"}]
    plus process/thread-name metadata records. [track_names] adds
    thread-name metadata for extra tracks (e.g.
    {!Soc.engine_track_names} for the per-DMA-channel and
    per-accelerator async tracks). *)

val to_string :
  ?cpu_freq_mhz:float -> ?track_names:(int * string) list -> Trace.event list -> string

val write_file :
  ?cpu_freq_mhz:float ->
  ?track_names:(int * string) list ->
  string ->
  Trace.event list ->
  unit
(** Write {!to_string} to a path, atomically ({!Json.write_file}). *)
