(* In-memory span recorder for the traced run. A span times one call into
   a layer's public function; its parent is the innermost span open on
   the same domain, so spans opened inside pool workers nest correctly.
   Spans stay in memory until [write] at the end of the run. *)

type t = {
  enabled : bool;
  mu : Mutex.t;
  mutable spans : Arith.span list;
  next : int Atomic.t;
}

let create ~enabled = { enabled; mu = Mutex.create (); spans = []; next = Atomic.make 1 }

let disabled = create ~enabled:false

(* Ids of the spans open on this domain, innermost first. *)
let open_spans : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span t ~name ?(key = "") f =
  if not t.enabled then f ()
  else begin
    let id = Atomic.fetch_and_add t.next 1 in
    let stack = Domain.DLS.get open_spans in
    let parent = match stack with p :: _ -> p | [] -> 0 in
    Domain.DLS.set open_spans (id :: stack);
    let words0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let words = Gc.minor_words () -. words0 in
      Domain.DLS.set open_spans stack;
      Mutex.lock t.mu;
      t.spans <- { Arith.id; parent; name; key; start; stop; words } :: t.spans;
      Mutex.unlock t.mu
    in
    Fun.protect ~finally:finish f
  end

let spans t =
  Mutex.lock t.mu;
  let s = List.rev t.spans in
  Mutex.unlock t.mu;
  s

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let open Simkit.Json in
          output_string oc
            (to_string
               (Obj
                  [
                    ("id", Int s.Arith.id);
                    ("parent", Int s.parent);
                    ("name", String s.name);
                    ("key", String s.key);
                    ("start", Float s.start);
                    ("end", Float s.stop);
                    ("words", Float s.words);
                  ]));
          output_char oc '\n')
        (spans t))
