(** Mutable fixed-width processor sets (bit sets packed into an int
    array), replacing the single-[int] directory masks that capped the
    simulated machine at 62 processors. All operations are O(1) except
    [clear]/[assign_singleton]/[iter]/[fold], which are O(width / 62).
    The set does not track its size: {!Cache} keeps the holder count next
    to the set. *)

type t

val make : width:int -> t
(** Empty set able to hold processors [0 .. width - 1]. *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit

val assign_singleton : t -> int -> unit
(** [assign_singleton s p] makes [s] exactly [{p}]. *)

val iter : (int -> unit) -> t -> unit
(** Calls the function on each member in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
