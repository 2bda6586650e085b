(** Shared renderer for the [ephemeral-serve-ledger] artifact.

    The ledger has a [deterministic] section — a pure function of the
    corpus manifest, backend, and queue bound, byte-identical run to
    run and {e at any shard count} — and a [volatile] section of
    traffic tallies and timings.  {!Frontend} renders it at drain from
    its backend's final tallies: {!Engine.stats} for the single-process
    {!Server}, per-shard tallies merged with {!merge_volatile} for the
    sharded {!Router} — the same shape either way, so every downstream
    check (schema tag, [queue_peak] bound, CI deterministic-section
    diff) is shard-count-agnostic.  This module also owns the STATS
    reply text. *)

type volatile = {
  queries : int;
  shed : int;
  expired : int;
  cache_hits : int;
  store_hits : int;
  sweeps : int;
  evictions : int;
  queue_peak : int;  (** merged across shards with [max], not [+] *)
  p50_ms : float;
  p99_ms : float;
  qps : float;
  wall_s : float;
  shards : int option;  (** [None] = single-process serve *)
}

val of_stats : Engine.stats -> volatile
(** A single engine's tallies; timings zero, [shards = None]. *)

val render_stats_text : volatile -> string
(** The STATS reply text: the tallies as one ["queries=12 shed=0 ..."]
    line (timings and [shards] are not part of it). *)

val parse_stats_text : string -> volatile option
(** Inverse of {!render_stats_text} on the tallies; [None] when no
    [k=v] field with an integer value is present. *)

val merge_volatile : volatile list -> shards:int -> volatile
(** Sum tallies, [max] the queue peaks, record the shard count.
    Timings are zeroed — per-shard values do not compose; the
    front-end fills in its own end-to-end figures. *)

val render :
  backend:string ->
  queue_max:int ->
  instances:(string * string * string) list ->
  volatile ->
  string
(** The full ledger document, trailing newline included.  [instances]
    is {!Corpus.list_rows} output in manifest order. *)
