(** A minimal XML reader/writer — just enough for Pegasus DAX files.

    Supported: the XML declaration, comments, elements with attributes
    (single- or double-quoted), self-closing tags, character data
    (returned but unused by DAX), and the five standard entities.
    Unsupported (rejected): CDATA, processing instructions beyond the
    declaration, DOCTYPE, namespaced attribute quirks beyond plain
    [a:b] names. This is deliberate: DAX files produced by the Pegasus
    generator use none of those. *)

type t = Element of string * (string * string) list * t list | Text of string

exception Parse_error of { position : int; message : string }

val parse : string -> t
(** Parses a document and returns its root element.

    @raise Parse_error on malformed input. *)

val attr : t -> string -> string option
(** Attribute lookup on an element ([None] on [Text]). *)

val children : t -> t list
(** Child elements (text nodes filtered out); [\[\]] on [Text]. *)

val name : t -> string
(** Element name; [""] for text. *)

val to_string : t -> string
(** Serialises with 2-space indentation and escaped attributes. *)
