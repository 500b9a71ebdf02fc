type proc = int

type summary = {
  hits : int;
  cold_misses : int;
  coherence_misses : int;
  invalidations_sent : int;
  cross_node_events : int;
  cross_socket_events : int;
}

type proc_stats = {
  p_hits : int;
  p_cold_misses : int;
  p_coherence_misses : int;
  p_invalidations_sent : int;
  p_invalidations_received : int;
  p_evictions : int;
}

(* Directory entry: which processors hold the line, and how many. [mask]
   is a processor set (multi-word bit set, so machines wider than 62
   processors work); [holders] is its cardinality, kept so an access needs
   no popcount. A line held by one processor after a write is that
   processor's exclusive (dirty) copy; the classification below needs only
   the holder set. *)
type line_state = { mask : Procset.t; mutable holders : int }

type counters = {
  mutable hits : int;
  mutable cold : int;
  mutable coher : int;
  mutable inval_sent : int;
  mutable inval_recv : int;
  mutable evictions : int;
}

(* Per-processor LRU tracking for finite caches: a doubly-linked list in
   recency order plus a line -> node index. *)
type lru = { order : int Dlist.t; nodes : (int, int Dlist.node) Hashtbl.t }

(* The directory is keyed by line index: an int-keyed table, so a lookup
   costs one integer hash and no polymorphic comparison. *)
module Dir = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

type t = {
  line_size : int;
  line_shift : int;
  nprocs : int;
  capacity_lines : int option;
  nodes : int array; (* processor -> NUMA node, validated at creation *)
  sockets : int array; (* processor -> socket, validated at creation *)
  multi_domain : bool; (* more than one node or socket: cross-domain events possible *)
  directory : line_state Dir.t; (* line index -> state *)
  counters : counters array;
  lrus : lru array; (* one per processor when capacity_lines is set, else empty *)
  mutable cross_node_total : int;
  mutable cross_socket_total : int;
}

let max_procs = 1024

(* Materialise and validate a processor -> domain-id map. Out-of-range or
   non-contiguous ids would silently miscount [cross_node_events] (a
   processor mapped to a node nobody else can reach makes every event
   "remote"), so both are rejected loudly. *)
let validated_domain_map ~what ~nprocs f =
  let a = Array.init nprocs f in
  Array.iteri
    (fun p d ->
      if d < 0 || d >= nprocs then
        invalid_arg
          (Printf.sprintf "Cache.create: %s maps processor %d to id %d, outside [0, %d)" what p d
             nprocs))
    a;
  let max_id = Array.fold_left max 0 a in
  let seen = Array.make (max_id + 1) false in
  Array.iter (fun d -> seen.(d) <- true) a;
  Array.iteri
    (fun d used ->
      if not used then
        invalid_arg
          (Printf.sprintf "Cache.create: %s ids are non-contiguous: id %d appears but %d is unused"
             what max_id d))
    seen;
  a

let create ?(line_size = 64) ?capacity_lines ?(node_of = fun _ -> 0) ?(socket_of = fun _ -> 0)
    ~nprocs () =
  if line_size <= 0 || line_size land (line_size - 1) <> 0 then
    invalid_arg "Cache.create: line_size must be a positive power of two";
  if nprocs < 1 || nprocs > max_procs then
    invalid_arg (Printf.sprintf "Cache.create: nprocs must be in [1, %d]" max_procs);
  (match capacity_lines with
   | Some c when c < 1 -> invalid_arg "Cache.create: capacity_lines must be >= 1"
   | _ -> ());
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n / 2) in
  let nodes = validated_domain_map ~what:"node_of" ~nprocs node_of in
  let sockets = validated_domain_map ~what:"socket_of" ~nprocs socket_of in
  {
    line_size;
    line_shift = log2 line_size;
    nprocs;
    capacity_lines;
    nodes;
    sockets;
    (* Contiguous ids from 0: more than one domain iff some id is non-zero. *)
    multi_domain = Array.exists (fun d -> d <> 0) nodes || Array.exists (fun d -> d <> 0) sockets;
    directory = Dir.create 4096;
    counters =
      Array.init nprocs (fun _ -> { hits = 0; cold = 0; coher = 0; inval_sent = 0; inval_recv = 0; evictions = 0 });
    lrus =
      (match capacity_lines with
       | Some _ -> Array.init nprocs (fun _ -> { order = Dlist.create (); nodes = Hashtbl.create 256 })
       | None -> [||]);
    cross_node_total = 0;
    cross_socket_total = 0;
  }

let line_size t = t.line_size

let nprocs t = t.nprocs

let node_of t p = t.nodes.(p)

let socket_of t p = t.sockets.(p)

let line_of_addr t addr = addr lsr t.line_shift

let state_of t line =
  match Dir.find t.directory line with
  | s -> s
  | exception Not_found ->
    let s = { mask = Procset.make ~width:t.nprocs; holders = 0 } in
    Dir.add t.directory line s;
    s

let make_sole_holder s p =
  Procset.assign_singleton s.mask p;
  s.holders <- 1

(* Record that processor [p] now caches [line]; evict its least recently
   used line when over capacity (the victim silently drops out of the
   directory — writebacks are modelled as free/asynchronous). *)
let lru_touch t p line capacity =
  let lru = t.lrus.(p) in
  (match Hashtbl.find_opt lru.nodes line with
   | Some node -> Dlist.remove lru.order node
   | None -> ());
  Hashtbl.replace lru.nodes line (Dlist.push_front lru.order line);
  if Dlist.length lru.order > capacity then
    match Dlist.peek_back lru.order with
    | None -> ()
    | Some victim ->
      (match Hashtbl.find_opt lru.nodes victim with
       | Some node -> Dlist.remove lru.order node
       | None -> ());
      Hashtbl.remove lru.nodes victim;
      (match Dir.find_opt t.directory victim with
       | Some st when Procset.mem st.mask p ->
         Procset.remove st.mask p;
         st.holders <- st.holders - 1
       | Some _ | None -> ());
      t.counters.(p).evictions <- t.counters.(p).evictions + 1

(* One access classifies each line it spans MESI-style against the holder
   set before the transition:
   - write, sole holder: hit (silent upgrade to exclusive);
   - write, other holders: every other copy is invalidated and the writer
     becomes the sole holder — a hit if it held the line, a coherence miss
     otherwise;
   - read, holder: hit;
   - read, other holders: served cache-to-cache (a coherence miss; an
     exclusive copy is downgraded to shared, nothing is invalidated);
   - no holder: cold miss.
   A coherence event (a miss served by a peer, or invalidations) crosses a
   node or socket once per remote copy it invalidates, or once for a served
   miss if any current holder is remote. *)
let access t p ~addr ~len ~is_write =
  if len <= 0 then invalid_arg "Cache.access: len must be positive";
  if p < 0 || p >= t.nprocs then invalid_arg "Cache.access: bad processor id";
  let c = t.counters.(p) in
  let hits = ref 0 and cold = ref 0 and coher = ref 0 and invals = ref 0 in
  let cross_node = ref 0 and cross_socket = ref 0 in
  let first = line_of_addr t addr and last = line_of_addr t (addr + len - 1) in
  for line = first to last do
    let s = state_of t line in
    let holds = Procset.mem s.mask p in
    let nremote = if holds then s.holders - 1 else s.holders in
    if nremote > 0 && (is_write || not holds) then begin
      (* A coherence event: walk the remote copies once, crediting
         invalidations (writes only) and counting cross-domain peers. *)
      let my_node = t.nodes.(p) and my_socket = t.sockets.(p) in
      let xn = ref 0 and xs = ref 0 in
      Procset.iter
        (fun q ->
          if q <> p then begin
            if is_write then t.counters.(q).inval_recv <- t.counters.(q).inval_recv + 1;
            if t.multi_domain then begin
              if t.nodes.(q) <> my_node then incr xn;
              if t.sockets.(q) <> my_socket then incr xs
            end
          end)
        s.mask;
      if is_write then begin
        c.inval_sent <- c.inval_sent + nremote;
        invals := !invals + nremote;
        cross_node := !cross_node + !xn;
        cross_socket := !cross_socket + !xs;
        make_sole_holder s p;
        if holds then incr hits else incr coher
      end
      else begin
        cross_node := !cross_node + min 1 !xn;
        cross_socket := !cross_socket + min 1 !xs;
        Procset.add s.mask p;
        s.holders <- s.holders + 1;
        incr coher
      end
    end
    else if holds then incr hits
    else begin
      make_sole_holder s p;
      incr cold
    end;
    match t.capacity_lines with
    | Some capacity -> lru_touch t p line capacity
    | None -> ()
  done;
  c.hits <- c.hits + !hits;
  c.cold <- c.cold + !cold;
  c.coher <- c.coher + !coher;
  t.cross_node_total <- t.cross_node_total + !cross_node;
  t.cross_socket_total <- t.cross_socket_total + !cross_socket;
  {
    hits = !hits;
    cold_misses = !cold;
    coherence_misses = !coher;
    invalidations_sent = !invals;
    cross_node_events = !cross_node;
    cross_socket_events = !cross_socket;
  }

let credit_hits t p n =
  if n < 0 then invalid_arg "Cache.credit_hits: n must be >= 0";
  t.counters.(p).hits <- t.counters.(p).hits + n

let read t p ~addr ~len = access t p ~addr ~len ~is_write:false

let write t p ~addr ~len = access t p ~addr ~len ~is_write:true

let stats t p =
  let c = t.counters.(p) in
  {
    p_hits = c.hits;
    p_cold_misses = c.cold;
    p_coherence_misses = c.coher;
    p_invalidations_sent = c.inval_sent;
    p_invalidations_received = c.inval_recv;
    p_evictions = c.evictions;
  }

let total_cross_node_events t = t.cross_node_total

let total_cross_socket_events t = t.cross_socket_total

let total_invalidations t = Array.fold_left (fun acc c -> acc + c.inval_recv) 0 t.counters

let total_coherence_misses t = Array.fold_left (fun acc c -> acc + c.coher) 0 t.counters

let sharers t ~line =
  match Dir.find_opt t.directory line with
  | None -> []
  | Some s -> List.rev (Procset.fold (fun q acc -> q :: acc) s.mask [])

let reset_stats t =
  Array.iter
    (fun c ->
      c.hits <- 0;
      c.cold <- 0;
      c.coher <- 0;
      c.inval_sent <- 0;
      c.inval_recv <- 0;
      c.evictions <- 0)
    t.counters
