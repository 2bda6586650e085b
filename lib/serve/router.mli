(** The sharded [ephemeral serve --shards N] parent process: the
    {!Frontend} over a sharded backend of N supervised shard workers
    (DESIGN.md §15).

    Query frames are routed by the instance id the front-end peeked,
    through {!Corpus.shard_of}, and their request/reply bytes cross
    the router untouched, so reply byte-identity at any shard count is
    structural.  LIST rows (and so HEALTH/READY) come from a startup
    snapshot of every shard's LIST merged back into manifest order;
    STATS fans out to the shards and sums.

    A supervisor thread reaps crashed shards and respawns them with
    {!Fault.Retry.backoff_delay} under a bounded budget; requests to a
    down shard answer typed [Unavailable].  With
    {!Fault.Plan.t.shard_kill} positive it SIGKILLs live shards on
    deterministic rolls — the chaos soak's crash-respawn site.

    Graceful drain cascades SIGTERM to the shards and publishes one
    merged ledger whose deterministic section is byte-identical at any
    shard count. *)

type config = {
  address : Frontend.address;
      (** a Unix socket path; shard [k] listens on
          {!Shard.socket_path}[ address k] *)
  shards : int;
  shard_argv : int -> string array;
      (** argv to (re)spawn shard [k] — the running binary with
          [--shard-index k] *)
  read_timeout_s : float;
  queue_max : int;  (** the shards' admission bound, for the ledger *)
  ledger_path : string option;
  manifest_ids : string list;
      (** {!Corpus.manifest_ids} of the full manifest, for the LIST
          merge *)
  backend : Sim.Backend.t;
  fault : Fault.Plan.t;
}

val run : config -> (unit, string) result
(** Spawn and await the shards, serve until the graceful-shutdown
    signal, drain, and return.  [Error] only for startup failures (a
    TCP address, a shard that never became ready, an unbindable
    socket) — already spawned shards are terminated before returning.
    @raise Invalid_argument if [shards < 1]. *)

val parse_stats_text : string -> Ledger.volatile option
(** {!Ledger.parse_stats_text}, kept under this name for existing
    callers. *)

(**/**)

(* Exposed for tests. *)
val exchange_once : Unix.file_descr -> string -> string
(** One forwarded request/reply over [fd] as the link to shard 0,
    then the link is closed: the raw reply bytes, or an encoded
    UNAVAILABLE on any link failure. *)

val merge_list_rows :
  manifest_ids:string list ->
  (string * string * string) list list ->
  (string * string * string) list
