(** Shard-worker process management for the sharded {!Router}.

    A shard worker is the running binary re-exec'd as
    [ephemeral serve --shard-index K]: it loads only its
    {!Corpus.shard_of} partition of the manifest and listens on a
    private socket.  Readiness is probed with PING — a shard's stdout
    is discarded, so the router's READY line stays the only one. *)

val socket_path : string -> int -> string
(** [socket_path base k] = ["<base>.shard-<k>"], the private socket of
    shard [k] derived from the router's public socket path. *)

val ledger_path : string -> int -> string
(** Per-shard ledger path derived from the merged-ledger path the same
    way. *)

val spawn : string array -> int
(** [create_process argv.(0) argv] with inherited stdin/stderr and
    stdout discarded; returns the pid.  Raises on exec failure
    (missing binary). *)

val wait_ready : ?timeout_s:float -> string -> (unit, string) result
(** Poll PING on a shard socket until it answers or the window
    closes. *)

val poll_exit : int -> Unix.process_status option
(** Non-blocking reap: [None] while the child runs.  [ECHILD] (already
    reaped) counts as exited. *)

val terminate : ?timeout_s:float -> int -> Unix.process_status
(** SIGTERM, wait up to [timeout_s] for the graceful drain, then
    SIGKILL.  The caller must be the only reaper of this pid. *)
