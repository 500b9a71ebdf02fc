(* Mutable fixed-width processor sets. One bit per processor, packed 62
   bits to a word: the directory used to keep a single [int] mask, which
   capped the machine at 62 processors; an array of words lifts that cap
   (128-processor machines fit in three words) while keeping membership
   tests and updates O(1). *)

type t = int array

let bits_per_word = 62

let make ~width =
  if width < 1 then invalid_arg "Procset.make: width must be >= 1";
  Array.make ((width + bits_per_word - 1) / bits_per_word) 0

let mem s p = s.(p / bits_per_word) land (1 lsl (p mod bits_per_word)) <> 0

let add s p = s.(p / bits_per_word) <- s.(p / bits_per_word) lor (1 lsl (p mod bits_per_word))

let remove s p = s.(p / bits_per_word) <- s.(p / bits_per_word) land lnot (1 lsl (p mod bits_per_word))

let clear s = Array.fill s 0 (Array.length s) 0

(* Set [s] to the singleton {p}. *)
let assign_singleton s p =
  clear s;
  add s p

let iter f s =
  Array.iteri
    (fun wi w ->
      let m = ref w in
      while !m <> 0 do
        let bit = !m land (- !m) in
        let rec idx b i = if b = 1 then i else idx (b lsr 1) (i + 1) in
        f ((wi * bits_per_word) + idx bit 0);
        m := !m land lnot bit
      done)
    s

let fold f s init =
  let acc = ref init in
  iter (fun p -> acc := f p !acc) s;
  !acc
