(** Hand-written SQL lexer.

    Keywords are recognised case-insensitively and normalised to upper
    case; everything wordy that is not a keyword (including function names
    such as [COUNT] or [ABS]) is an {!IDENT}. String literals use single
    quotes with [''] escaping. Line comments ([-- ...]) are skipped. *)

type token =
  | KW of string      (** canonical upper-case keyword *)
  | IDENT of string   (** identifier, lower-cased *)
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | DOT
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | CONCAT            (** [||] *)
  | TILDE
  | EOF

exception Lex_error of string * int
(** Message and byte offset. *)

val tokenize : string -> token array
(** Tokenize a whole input; the array always ends with {!EOF}.
    Raises {!Lex_error} on malformed input. *)

val token_site : token -> int
(** The token's class site for the grammar coverage map — one
    [tok.kw.*] site per keyword, one site per literal/identifier class,
    one shared [tok.punct] site for punctuation. All sites are
    registered at module initialisation, never during tokenizing, so
    parses running inside shard domains only read the registry. *)

val pp_token : Format.formatter -> token -> unit
