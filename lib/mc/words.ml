(* Unboxed word vectors: word i of a vector is bytes [8i, 8i + 8),
   read and written only through the bounds-checked 64-bit bytes
   primitives.  fill and blit are word loops, not [Bytes.fill] or
   [Bytes.blit]: the kernels call them on a few dozen words per tile,
   where a C call costs more than the copy. *)

type t = Bytes.t

external get : t -> int -> int64 = "%caml_bytes_get64"
external set : t -> int -> int64 -> unit = "%caml_bytes_set64"

let create n =
  if n < 0 then invalid_arg "Mc.Words.create: negative length";
  Bytes.make (8 * n) '\000'

let empty = Bytes.empty
let length t = Bytes.length t lsr 3

let check name t pos len =
  if pos < 0 || len < 0 || pos > length t - len then invalid_arg name

let fill t pos len w =
  check "Mc.Words.fill" t pos len;
  for i = pos to pos + len - 1 do
    set t (8 * i) w
  done

let blit src src_pos dst dst_pos len =
  check "Mc.Words.blit" src src_pos len;
  check "Mc.Words.blit" dst dst_pos len;
  if src == dst && src_pos < dst_pos then
    for i = len - 1 downto 0 do
      set dst (8 * (dst_pos + i)) (get src (8 * (src_pos + i)))
    done
  else
    for i = 0 to len - 1 do
      set dst (8 * (dst_pos + i)) (get src (8 * (src_pos + i)))
    done

let of_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i w -> set t (8 * i) w) a;
  t

let blit_to_array src src_pos dst dst_pos len =
  check "Mc.Words.blit_to_array" src src_pos len;
  if dst_pos < 0 || dst_pos > Array.length dst - len then
    invalid_arg "Mc.Words.blit_to_array";
  for i = 0 to len - 1 do
    dst.(dst_pos + i) <- get src (8 * (src_pos + i))
  done
