(** A Lorel-style update sublanguage.

    Section 1.1 asks "to what extent are database tools available for
    querying or {e maintaining} the web?"; Lorel (the full Lore system)
    had updates alongside queries.  Three statements cover the
    maintenance operations the tutorial's restructuring discussion
    implies:

    {v
      insert PATH := { ssd tree }     graft the tree's edges at every
                                      object PATH denotes
      delete PATH . component         drop matching out-edges ('%' = any)
                                      at every object PATH denotes
      rename PATH . old to new        relabel matching out-edges
    v}

    Updates are functional: {!apply} returns a new graph, the input is
    untouched.  Unreachable debris left by [delete] is collected. *)

type t

(** A syntax error raises {!Ssd_diag.Fail} with code SSD002 and the span
    of the failing offset in the whole update text, including errors in
    an inserted ssd value. *)
val parse : string -> t

val apply : db:Ssd.Graph.t -> t -> Ssd.Graph.t

(** Parse then apply; statements may be separated by [;]. *)
val run : db:Ssd.Graph.t -> string -> Ssd.Graph.t
