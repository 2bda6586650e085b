(** The one serving front-end of [ephemeral serve] (DESIGN.md §15):
    listener, bounded connection table, per-connection reader threads,
    the control ops and the graceful drain, over a backend that
    answers queries — the local engine ({!Server}) or the shard links
    ({!Router}).

    Query ops that {!Proto.peek_instance} can route go to the
    backend's [query], timed on the monotonic clock into the
    [serve.latency_ms] histogram.  Everything else is decoded here:
    PING, HEALTH/READY/LIST from the backend's rows, STATS from its
    tallies, and an undecodable payload answers the decoder's typed
    error without reaching the backend.

    Drain order: stop accepting, backend [quiesce], shut down
    surviving connections, join their threads, backend [final]
    tallies, publish the ledger atomically, unlink the socket. *)

type address = Unix_path of string | Tcp of string * int

val parse_address : string -> (address, string) result
(** ["tcp:HOST:PORT"] is TCP; anything else is a Unix socket path. *)

val sockaddr : address -> Unix.sockaddr
(** The one resolution of an address (host names through
    [gethostbyname]), shared by bind, the drain wake and
    {!Client.connect}. *)

type 'c backend = {
  kind : Sim.Backend.t;  (** for the ledger's deterministic section *)
  queue_max : int;  (** admission bound, for the ledger *)
  rows : unit -> (string * string * string) list;
      (** LIST rows in manifest order; HEALTH/READY derive from them *)
  open_conn : unit -> 'c;  (** per-connection handle *)
  close_conn : 'c -> unit;
  query : 'c -> string -> string -> string;
      (** [query c payload instance]: reply bytes for a query-op
          request payload routed to [instance] *)
  stats : 'c -> Ledger.volatile;  (** tallies for STATS *)
  quiesce : unit -> unit;
      (** drain hook run after the listener closes, before connections
          are shut down *)
  final : unit -> Ledger.volatile;
      (** drain hook run once connections are joined: the final
          tallies for the ledger *)
}

type 'c t

val create :
  address:address ->
  read_timeout_s:float ->
  ledger_path:string option ->
  'c backend ->
  'c t
(** Bind the listener (a stale Unix socket file is replaced).
    [read_timeout_s] bounds each frame read — a slow-loris peer holds
    a connection at most that long.  [ledger_path] is published
    atomically on drain.  Raises on bind failure. *)

val run : 'c t -> unit
(** Arm the graceful-shutdown signal, print ["READY <address>"] on
    stdout, serve until drained.  Returns after a complete drain (the
    caller should then exit 0). *)

val run_background : 'c t -> unit -> unit
(** Serve on a background thread with no signal handling and no
    announce line; the returned thunk initiates the drain and joins. *)

(**/**)

(* Exposed for tests. *)
val live_conns : 'c t -> int
val health : (string * string * string) list -> string
