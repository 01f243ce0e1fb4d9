// Package sql implements the SQL frontend: a hand-written byte-scan
// lexer and Pratt parser for the analytical subset the repository's
// workloads need (stand-in for the Ingres SQL layer of §I-B), plus a
// planner that resolves names against the catalog and emits algebra
// plans for the optimizer/cross-compiler stack.
//
// Supported statements:
//
//	CREATE TABLE t (col TYPE [NULL], ...)
//	INSERT INTO t VALUES (...), (...)
//	SELECT exprs FROM t [[LEFT [OUTER]|SEMI|ANTI] JOIN u ON a = b]... [WHERE p]
//	    [GROUP BY exprs] [HAVING p] [ORDER BY expr [DESC], ...] [LIMIT n]
//	SELECT ... UNION [ALL] | EXCEPT | INTERSECT SELECT ... [ORDER BY ...] [LIMIT n]
//	UPDATE t SET col = expr [WHERE p]
//	DELETE FROM t [WHERE p]
//
// Scalar grammar: arithmetic, comparisons, AND/OR/NOT, [NOT] BETWEEN,
// [NOT] IN (list | SELECT ...), [NOT] LIKE, IS [NOT] NULL,
// CASE WHEN ... THEN ... ELSE ... END, SUM/COUNT/AVG/MIN/MAX aggregates,
// uncorrelated scalar subqueries (SELECT <agg> ...), YEAR(d),
// DATE 'YYYY-MM-DD' literals, numbers (a BIGINT unless a point or an
// exponent makes them DOUBLE: 1.5, .5, 2.5E-3), and `?` / `$N`
// placeholders for prepared statements.
//
// The lexer is a batch byte scanner: tokenize classifies bytes through
// [256]-entry tables and lexes the whole statement into a reusable
// token array in one pass, keeping the scan cursor in a register
// across tokens. Keywords resolve through a perfect-hash table (one
// probe, case-insensitive verify, no ToUpper allocation); tokens are
// 16-byte [pos,end) offset pairs into the input — zero string copies
// on the hot path. Identifier lowercasing and string-literal
// unescaping happen lazily, only when an identifier actually contains
// upper-case bytes or a literal actually contains a doubled quote
// (flags recorded during the scan).
package sql

import "strings"

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators (see symID)
	tokKeyword // recognized keyword (see kwID)
	tokParam   // placeholder: `?` (raw empty) or `$N` (raw = digits)
)

// kwID enumerates recognized keywords; kwNone marks a non-keyword.
type kwID uint8

const (
	kwNone kwID = iota
	kwSELECT
	kwFROM
	kwWHERE
	kwGROUP
	kwBY
	kwORDER
	kwLIMIT
	kwASC
	kwDESC
	kwAND
	kwOR
	kwNOT
	kwIN
	kwBETWEEN
	kwLIKE
	kwIS
	kwNULL
	kwCASE
	kwWHEN
	kwTHEN
	kwELSE
	kwEND
	kwAS
	kwJOIN
	kwON
	kwINNER
	kwLEFT
	kwOUTER
	kwSEMI
	kwANTI
	kwCREATE
	kwTABLE
	kwINSERT
	kwINTO
	kwVALUES
	kwUPDATE
	kwSET
	kwDELETE
	kwDATE
	kwBIGINT
	kwDOUBLE
	kwVARCHAR
	kwBOOLEAN
	kwTRUE
	kwFALSE
	kwSUM
	kwCOUNT
	kwAVG
	kwMIN
	kwMAX
	kwYEAR
	kwBEGIN
	kwCOMMIT
	kwROLLBACK
	kwHAVING
	kwDISTINCT
	kwINTEGER
	kwTEXT
	kwFLOAT
	kwUNION
	kwALL
	kwEXCEPT
	kwINTERSECT
	kwCount_ // number of keyword ids; keep last
)

// kwNames maps kwID to the canonical lower-case spelling (index 0 is
// unused). Used for rendering, normalization and error messages.
var kwNames = [kwCount_]string{
	kwSELECT: "select", kwFROM: "from", kwWHERE: "where", kwGROUP: "group",
	kwBY: "by", kwORDER: "order", kwLIMIT: "limit", kwASC: "asc",
	kwDESC: "desc", kwAND: "and", kwOR: "or", kwNOT: "not", kwIN: "in",
	kwBETWEEN: "between", kwLIKE: "like", kwIS: "is", kwNULL: "null",
	kwCASE: "case", kwWHEN: "when", kwTHEN: "then", kwELSE: "else",
	kwEND: "end", kwAS: "as", kwJOIN: "join", kwON: "on", kwINNER: "inner",
	kwLEFT: "left", kwOUTER: "outer", kwSEMI: "semi", kwANTI: "anti",
	kwCREATE: "create", kwTABLE: "table", kwINSERT: "insert", kwINTO: "into",
	kwVALUES: "values", kwUPDATE: "update", kwSET: "set", kwDELETE: "delete",
	kwDATE: "date", kwBIGINT: "bigint", kwDOUBLE: "double",
	kwVARCHAR: "varchar", kwBOOLEAN: "boolean", kwTRUE: "true",
	kwFALSE: "false", kwSUM: "sum", kwCOUNT: "count", kwAVG: "avg",
	kwMIN: "min", kwMAX: "max", kwYEAR: "year", kwBEGIN: "begin",
	kwCOMMIT: "commit", kwROLLBACK: "rollback", kwHAVING: "having",
	kwDISTINCT: "distinct", kwINTEGER: "integer", kwTEXT: "text",
	kwFLOAT: "float", kwUNION: "union", kwALL: "all", kwEXCEPT: "except",
	kwINTERSECT: "intersect",
}

// Keyword lookup packs a word's first eight lower-cased bytes into a
// uint64 (big-endian shift-or). Letters are nonzero, so a shorter word
// can never alias a longer one's packing — for words of at most eight
// bytes the packed value IS the word, and verification is a single
// integer compare instead of a byte loop. A multiplicative perfect
// hash over the packed value picks the only candidate slot; init
// searches for a multiplier under which no two keywords collide. Only
// INTERSECT exceeds eight bytes; kwTail checks its ninth byte, and
// kwLen rejects eight-byte prefixes of it.
const kwTableBits = 9

var (
	kwTable  [1 << kwTableBits]kwID
	kwMult   uint64
	kwPacked [kwCount_]uint64 // first min(8,len) bytes, shift-or packed
	kwLen    [kwCount_]uint8
	kwTail   [kwCount_]byte // 9th byte, or 0 for words of <= 8 bytes
	maxKwLen int
)

// kwPack returns name's first eight bytes (fewer for short names)
// folded to lower case and packed big-endian into a uint64.
func kwPack(name string) uint64 {
	var w uint64
	for j := 0; j < len(name) && j < 8; j++ {
		w = w<<8 | uint64(name[j]|0x20)
	}
	return w
}

func init() {
	for id := kwID(1); id < kwCount_; id++ {
		name := kwNames[id]
		if len(name) > maxKwLen {
			maxKwLen = len(name)
		}
		kwPacked[id] = kwPack(name)
		kwLen[id] = uint8(len(name))
		if len(name) > 8 {
			kwTail[id] = name[8]
		}
	}
	for mult := uint64(0x9E3779B97F4A7C15); ; mult += 2 {
		kwMult = mult
		kwTable = [1 << kwTableBits]kwID{}
		ok := true
		for id := kwID(1); id < kwCount_ && ok; id++ {
			slot := (kwPacked[id] * mult) >> (64 - kwTableBits)
			ok = kwTable[slot] == kwNone
			kwTable[slot] = id
		}
		if ok {
			return
		}
	}
}

// symID enumerates symbols/operators.
type symID uint8

const (
	symNone symID = iota
	symLParen
	symRParen
	symComma
	symStar
	symPlus
	symMinus
	symSlash
	symEq
	symLt
	symGt
	symLe
	symGe
	symNe // `<>` (also `!=`, normalized)
	symDot
	symSemi
	symCount_
)

// symNames maps symID to canonical text (static strings — symbol
// tokens never point into the source).
var symNames = [symCount_]string{
	symLParen: "(", symRParen: ")", symComma: ",", symStar: "*",
	symPlus: "+", symMinus: "-", symSlash: "/", symEq: "=", symLt: "<",
	symGt: ">", symLe: "<=", symGe: ">=", symNe: "<>", symDot: ".",
	symSemi: ";",
}

// Byte-class tables: one load per byte, no branching cascades.
const (
	clsOther byte = iota
	clsSpace
	clsDigit
	clsIdentStart // letter or underscore
	clsSym        // single-char symbol
)

var (
	charClass   [256]byte
	identTab    [256]byte // 0: not ident; 1: ident byte; 1|tokFlagUpper: upper-case letter
	singleSym   [256]symID
	symFollower [256]bool // first byte of a possible 2-char op (< > !)
)

func init() {
	for c := 'a'; c <= 'z'; c++ {
		charClass[c] = clsIdentStart
		identTab[c] = 1
	}
	for c := 'A'; c <= 'Z'; c++ {
		charClass[c] = clsIdentStart
		identTab[c] = 1 | tokFlagUpper
	}
	charClass['_'] = clsIdentStart
	identTab['_'] = 1 | tokFlagNonLetter
	for c := '0'; c <= '9'; c++ {
		charClass[c] = clsDigit
		identTab[c] = 1 | tokFlagNonLetter
	}
	for _, c := range []byte{' ', '\t', '\n', '\r'} {
		charClass[c] = clsSpace
	}
	for id := symID(1); id < symCount_; id++ {
		if len(symNames[id]) == 1 {
			c := symNames[id][0]
			singleSym[c] = id
			charClass[c] = clsSym
		}
	}
	charClass['!'] = clsSym // only as !=
	symFollower['<'] = true
	symFollower['>'] = true
	symFollower['!'] = true
}

// token flag bits. tokFlagUpper and tokFlagNonLetter double as identTab
// bits so the ident scan loop accumulates them with a single OR per
// byte; only tokFlagUpper is stored on tokens.
const (
	tokFlagEsc       uint8 = 1 // string literal contains a doubled quote
	tokFlagUpper     uint8 = 2 // identifier contains upper-case bytes
	tokFlagNonLetter uint8 = 4 // scan-time only: digit or underscore seen (cannot be a keyword)
)

// token is one lexed token, 16 bytes. Raw text is not stored: it is
// recovered from the source through the [pos, end) byte range — see
// rawText. For strings the range covers the quotes (the value is the
// inner text, escapes still doubled); for params it covers `?` or
// `$N` (the value is the digits after $, empty for ?).
type token struct {
	kind tokKind
	kw   kwID
	sym  symID
	flag uint8
	pos  int32
	end  int32
}

// rawText recovers a token's raw text from the source it was lexed
// from: idents and numbers verbatim, strings their inner text (escapes
// still doubled), params the digits after $ (empty for ?), symbols the
// canonical spelling (`!=` reads back as `<>`).
func rawText(src string, t *token) string {
	switch t.kind {
	case tokSymbol:
		return symNames[t.sym]
	case tokString:
		return src[t.pos+1 : t.end-1]
	case tokParam:
		return src[t.pos+1 : t.end]
	case tokEOF:
		return ""
	}
	return src[t.pos:t.end]
}

// number returns the end of the number that starts at src[i]: digits
// and points, then an optional exponent (e|E)[+|-]digits; false when an
// e or E is not followed by digits.
func number(src string, i int) (int, bool) {
	for i < len(src) && (charClass[src[i]] == clsDigit || src[i] == '.') {
		i++
	}
	if i >= len(src) || src[i]|0x20 != 'e' {
		return i, true
	}
	i++
	if i < len(src) && (src[i] == '+' || src[i] == '-') {
		i++
	}
	digits := i
	for i < len(src) && charClass[src[i]] == clsDigit {
		i++
	}
	return i, i > digits
}

// tokenize lexes all of src into toks, reusing its capacity and
// growing as needed, and returns the filled slice — always terminated
// by a tokEOF token. Batching the whole statement keeps the scan
// cursor in a register across tokens instead of bouncing it through a
// lexer struct once per token; malformed input yields a *ParseError.
func tokenize(src string, toks []token) ([]token, error) {
	n := len(src)
	// Every token consumes at least one source byte, so n+1 slots
	// (worst case: all one-byte symbols, plus EOF) always suffice —
	// sized up front so the scan loop has no growth check.
	if len(toks) <= n {
		toks = make([]token, n+1)
	}
	i := 0
	nt := 0
	for {
		tok := &toks[nt]
		nt++
		// Fast path: tokens are separated by a single space almost
		// always; runs of whitespace and comments take the loop below,
		// which also yields the break byte's class for dispatch.
		if i < n && src[i] == ' ' {
			i++
		}
		var c, cls byte
		for {
			if i >= n {
				*tok = token{kind: tokEOF, pos: int32(n), end: int32(n)}
				return toks[:nt], nil
			}
			c = src[i]
			cls = charClass[c]
			if cls != clsSpace {
				if c != '-' || i+1 >= n || src[i+1] != '-' {
					break
				}
				for i < n && src[i] != '\n' { // line comment
					i++
				}
				continue
			}
			i++
		}
		start := i
		switch cls {
		case clsIdentStart:
			fl := identTab[c]
			i++
			for i < n {
				b := identTab[src[i]]
				if b == 0 {
					break
				}
				fl |= b
				i++
			}
			// Keywords are pure letters: a digit or underscore anywhere
			// in the word rules out the lookup without hashing. The
			// probe packs the word like kwPack and verifies with integer
			// compares only (see the kwTable comment).
			if wn := i - start; fl&tokFlagNonLetter == 0 && wn <= maxKwLen && wn >= 2 {
				e8 := i
				if wn > 8 {
					e8 = start + 8
				}
				var w uint64
				for j := start; j < e8; j++ {
					w = w<<8 | uint64(src[j]|0x20)
				}
				if id := kwTable[(w*kwMult)>>(64-kwTableBits)]; id != kwNone &&
					kwPacked[id] == w && int(kwLen[id]) == wn &&
					(wn <= 8 || src[start+8]|0x20 == kwTail[id]) {
					*tok = token{kind: tokKeyword, kw: id, pos: int32(start), end: int32(i)}
					continue
				}
			}
			*tok = token{kind: tokIdent, flag: fl & tokFlagUpper, pos: int32(start), end: int32(i)}
		case clsDigit:
			end, ok := number(src, i)
			if i = end; !ok {
				return toks[:nt-1], newParseError(src, start, src[start:i], "malformed number: exponent has no digits")
			}
			*tok = token{kind: tokNumber, pos: int32(start), end: int32(i)}
		case clsSym:
			if c == '.' {
				if i+1 < n && charClass[src[i+1]] == clsDigit { // .5 style literal
					end, ok := number(src, i)
					if i = end; !ok {
						return toks[:nt-1], newParseError(src, start, src[start:i], "malformed number: exponent has no digits")
					}
					*tok = token{kind: tokNumber, pos: int32(start), end: int32(i)}
					continue
				}
				i++
				*tok = token{kind: tokSymbol, sym: symDot, pos: int32(start), end: int32(i)}
				continue
			}
			if symFollower[c] {
				if i+1 < n && src[i+1] == '=' {
					i += 2
					sym := symNe // != normalizes to <>
					switch c {
					case '<':
						sym = symLe
					case '>':
						sym = symGe
					}
					*tok = token{kind: tokSymbol, sym: sym, pos: int32(start), end: int32(i)}
					continue
				}
				if c == '<' && i+1 < n && src[i+1] == '>' {
					i += 2
					*tok = token{kind: tokSymbol, sym: symNe, pos: int32(start), end: int32(i)}
					continue
				}
				if c == '!' {
					return toks[:nt-1], newParseError(src, start, "!", "unexpected character '!'")
				}
			}
			i++
			*tok = token{kind: tokSymbol, sym: singleSym[c], pos: int32(start), end: int32(i)}
		default:
			switch c {
			case '\'':
				i++
				inner := i
				var esc uint8
				for {
					if i >= n {
						return toks[:nt-1], newParseError(src, inner, "", "unterminated string")
					}
					if src[i] != '\'' {
						i++
						continue
					}
					if i+1 < n && src[i+1] == '\'' { // doubled quote
						esc = tokFlagEsc
						i += 2
						continue
					}
					break
				}
				i++
				*tok = token{kind: tokString, flag: esc, pos: int32(start), end: int32(i)}
			case '?':
				i++
				*tok = token{kind: tokParam, pos: int32(start), end: int32(i)}
			case '$':
				if i+1 < n && charClass[src[i+1]] == clsDigit {
					i += 2
					for i < n && charClass[src[i]] == clsDigit {
						i++
					}
					*tok = token{kind: tokParam, pos: int32(start), end: int32(i)}
					continue
				}
				return toks[:nt-1], newParseError(src, start, "$", "unexpected character '$'")
			default:
				return toks[:nt-1], newParseError(src, start, src[start:i+1], "unexpected character "+quoteByte(c))
			}
		}
	}
}

// identTok returns an identifier's lower-cased text, reusing the
// source sub-slice when it is already lower-case — the lexer tracked
// case while scanning, so no rescan happens here.
func identTok(src string, t *token) string {
	raw := src[t.pos:t.end]
	if t.flag&tokFlagUpper == 0 {
		return raw
	}
	return strings.ToLower(raw)
}

// stringTok returns a literal's value, undoubling ” only when
// present.
func stringTok(src string, t *token) string {
	raw := src[t.pos+1 : t.end-1]
	if t.flag&tokFlagEsc == 0 {
		return raw
	}
	return strings.ReplaceAll(raw, "''", "'")
}

func quoteByte(c byte) string {
	if c >= 0x20 && c < 0x7f {
		return "'" + string(c) + "'"
	}
	const hex = "0123456789abcdef"
	return "0x" + string(hex[c>>4]) + string(hex[c&0xf])
}
