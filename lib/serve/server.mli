(** The single-process [ephemeral serve]: the {!Frontend} over a local
    backend — one {!Engine} in this process answers every query op
    (DESIGN.md §15).  Its drain hooks flush every admitted job through
    {!Engine.drain} before connections are shut down, and hand the
    engine's final tallies to the ledger. *)

type address = Frontend.address = Unix_path of string | Tcp of string * int

type config = {
  address : address;
  read_timeout_s : float;  (** per-frame deadline on connection reads *)
  engine : Engine.config;
  ledger_path : string option;  (** published atomically on drain *)
}

val default_config : config

val run : ?config:config -> Corpus.t -> unit
(** Bind, arm the graceful-shutdown signal, print ["READY <address>"],
    serve until drained.  Blocks; returns after a complete drain (the
    caller should then exit 0). *)

val run_background : ?config:config -> Corpus.t -> unit -> unit
(** In-process server on a background thread (no signal handling, no
    announce line).  Returns once the listener is bound — a bind
    failure raises here; the returned thunk initiates the drain and
    joins — for tests and the bench harness. *)

(**/**)

(* Exposed for tests: the bound front-end over a started engine. *)
val local : config -> Corpus.t -> unit Frontend.t
