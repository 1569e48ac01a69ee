package plus

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/measure"
)

// appendLineageBody appends the body of a lineage answer to dst: exactly
// the bytes json.NewEncoder(w).Encode writes for the answer's
// LineageResponse, trailing newline included, but appended straight from
// the account graph with no reflection and no intermediate structs. Nodes
// come in the graph's memoised id order, each node's features with sorted
// keys (as encoding/json orders map keys), edges sorted by (from, to).
// Like encoding/json it fails on a utility that is NaN or infinite, with
// an error wrapping errNoJSONForm.
func appendLineageBody(dst []byte, req Request, res *Result) ([]byte, error) {
	u := measure.Utilities(res.Spec, res.Account)
	for _, f := range [2]float64{u.Path, u.Node} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("plus: lineage of %q: utility %v %w", startRef(req), f, errNoJSONForm)
		}
	}
	a := res.Account
	dst = append(dst, `{"start":`...)
	dst = appendJSONString(dst, req.Start)
	if req.StartName != "" {
		dst = append(dst, `,"startName":`...)
		dst = appendJSONString(dst, req.StartName)
	}
	dst = append(dst, `,"viewer":`...)
	dst = appendJSONString(dst, string(req.Viewer))
	dst = append(dst, `,"mode":`...)
	dst = appendJSONString(dst, string(req.Mode))

	dst = append(dst, `,"nodes":`...)
	if a.Graph.NumNodes() == 0 {
		dst = append(dst, "null"...)
	} else {
		var keys []string
		sep := byte('[')
		for n := range a.Graph.SortedNodes() {
			dst = append(dst, sep, '{', '"', 'i', 'd', '"', ':')
			sep = ','
			dst = appendJSONString(dst, string(n.ID))
			if len(n.Features) > 0 {
				keys = keys[:0]
				for k := range n.Features {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				dst = append(dst, `,"features":`...)
				ksep := byte('{')
				for _, k := range keys {
					dst = append(dst, ksep)
					ksep = ','
					dst = appendJSONString(dst, k)
					dst = append(dst, ':')
					dst = appendJSONString(dst, n.Features[k])
				}
				dst = append(dst, '}')
			}
			if _, ok := a.SurrogateNodes[n.ID]; ok {
				dst = append(dst, `,"surrogate":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"edges":`...)
	if a.Graph.NumEdges() == 0 {
		dst = append(dst, "null"...)
	} else {
		sep := byte('[')
		for e := range a.Graph.SortedEdges() {
			dst = append(dst, sep)
			sep = ','
			dst = append(dst, `{"from":`...)
			dst = appendJSONString(dst, string(e.From))
			dst = append(dst, `,"to":`...)
			dst = appendJSONString(dst, string(e.To))
			if e.Label != "" {
				dst = append(dst, `,"label":`...)
				dst = appendJSONString(dst, e.Label)
			}
			if a.SurrogateEdges[e.ID()] {
				dst = append(dst, `,"surrogate":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}

	dst = append(dst, `,"pathUtility":`...)
	dst = appendJSONFloat(dst, u.Path)
	dst = append(dst, `,"nodeUtility":`...)
	dst = appendJSONFloat(dst, u.Node)
	t := res.Timing
	dst = append(dst, `,"timing":{"dbAccessUs":`...)
	dst = strconv.AppendInt(dst, t.DBAccess.Microseconds(), 10)
	dst = append(dst, `,"buildUs":`...)
	dst = strconv.AppendInt(dst, t.Build.Microseconds(), 10)
	dst = append(dst, `,"protectUs":`...)
	dst = strconv.AppendInt(dst, t.Protect.Microseconds(), 10)
	dst = append(dst, `,"totalUs":`...)
	dst = strconv.AppendInt(dst, t.Total.Microseconds(), 10)
	return append(dst, "}}\n"...), nil
}

// errNoJSONForm marks an answer appendLineageBody cannot encode: the
// server's fault, not the request's.
var errNoJSONForm = errors.New("has no JSON form")

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on (its default): control bytes, quote, backslash,
// <, > and & escaped, invalid UTF-8 replaced by \ufffd, and U+2028 /
// U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite float64 as encoding/json does: the
// shortest representation, in exponent form (without a padded exponent)
// below 1e-6 and from 1e21 on.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// writeLineageBody writes an encoded lineage answer as a 200 response
// with its Content-Length set. It never writes to body, which a cached
// answer shares with every concurrent hit.
func writeLineageBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client is gone: no one to tell
}

// UnmarshalJSON decodes a lineage answer without reflection: the decoding
// mirror of appendLineageBody. It accepts exactly the inputs
// json.Unmarshal accepts for this type and decodes them to the same
// value: keys in any order, matched to fields as encoding/json matches
// them (exactly, else under case folding), unknown keys skipped, null
// leaving a field as it was (nodes, edges and features become nil), a
// repeated key decoded over the first as encoding/json decodes it, \u
// escapes with surrogate pairs, and invalid UTF-8 replaced by U+FFFD.
// It rejects the rest, trailing data included.
//
// data is copied into one string, and every decoded string without
// escapes is a substring of it: keeping any one string of the answer
// keeps the whole body alive.
func (r *LineageResponse) UnmarshalJSON(data []byte) error {
	d := lineageDecoder{s: string(data)}
	err := d.object(func(key string) error {
		switch {
		case keyIs(key, "start"):
			return d.string(&r.Start)
		case keyIs(key, "startName"):
			return d.string(&r.StartName)
		case keyIs(key, "viewer"):
			return d.string(&r.Viewer)
		case keyIs(key, "mode"):
			return d.string(&r.Mode)
		case keyIs(key, "nodes"):
			return decodeArray(&d, &r.Nodes, d.node)
		case keyIs(key, "edges"):
			return decodeArray(&d, &r.Edges, d.edge)
		case keyIs(key, "pathUtility"):
			return d.float(&r.PathUtility)
		case keyIs(key, "nodeUtility"):
			return d.float(&r.NodeUtility)
		case keyIs(key, "timing"):
			return d.timing(&r.Timing)
		}
		return d.skip()
	})
	if err != nil {
		return err
	}
	if d.peek(); d.i < len(d.s) {
		return d.errorf("data after the answer")
	}
	return nil
}

// lineageDecoder walks one JSON document, checking its syntax as
// encoding/json's scanner does: i is the offset of the next unread byte,
// depth the number of arrays and objects open at i.
type lineageDecoder struct {
	s     string
	i     int
	depth int
}

// maxJSONDepth is the nesting encoding/json accepts, and no more.
const maxJSONDepth = 10000

func (d *lineageDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("plus: lineage answer: offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *lineageDecoder) peek() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// want fails because the next value is not of the kind the field holds.
func (d *lineageDecoder) want(kind string) error {
	if d.peek() == 0 {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("want %s, found %q", kind, d.s[d.i])
}

// null consumes a null literal if one is next.
func (d *lineageDecoder) null() bool {
	if d.peek() == 'n' && strings.HasPrefix(d.s[d.i:], "null") {
		d.i += len("null")
		return true
	}
	return false
}

// literal consumes lit, which must be next.
func (d *lineageDecoder) literal(lit string) error {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.i += len(lit)
	return nil
}

// open consumes the bracket that opens an array or object.
func (d *lineageDecoder) open(bracket byte, kind string) error {
	if d.peek() != bracket {
		return d.want(kind)
	}
	d.i++
	if d.depth++; d.depth > maxJSONDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// next reports whether the open array or object has another element,
// consuming the comma before it or the closing bracket after the last.
func (d *lineageDecoder) next(closing byte, first bool) (bool, error) {
	switch c := d.peek(); {
	case c == closing:
		d.i++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	case c == 0:
		return false, d.errorf("unexpected end of input")
	}
	return false, d.errorf("want ',' or %q, found %q", closing, d.s[d.i])
}

// object decodes the object that comes next, calling member with each
// key once d is at the key's value; null calls nothing.
func (d *lineageDecoder) object(member func(key string) error) error {
	if d.null() {
		return nil
	}
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := d.next('}', first)
		if err != nil || !more {
			return err
		}
		if d.peek() != '"' {
			return d.want("a key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.want("':'")
		}
		d.i++
		if err := member(key); err != nil {
			return err
		}
	}
}

// decodeArray decodes the array that comes next into *s as encoding/json
// decodes an array into a slice: element k is decoded over (*s)[k] while
// k is within the slice's capacity, an empty array gives an empty slice
// and null a nil one.
func decodeArray[T any](d *lineageDecoder, s *[]T, elem func(*T) error) error {
	if d.null() {
		*s = nil
		return nil
	}
	if err := d.open('[', "an array"); err != nil {
		return err
	}
	a := (*s)[:0]
	for first := true; ; first = false {
		more, err := d.next(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if len(a) < cap(a) {
			a = a[:len(a)+1]
		} else {
			var zero T
			a = append(a, zero)
		}
		if err := elem(&a[len(a)-1]); err != nil {
			return err
		}
	}
	if len(a) == 0 {
		a = []T{}
	}
	*s = a
	return nil
}

// skip consumes one value of any kind.
func (d *lineageDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func(string) error { return d.skip() })
	case c == '[':
		if err := d.open('[', "an array"); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.next(']', first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	_, err := d.number("a value")
	return err
}

func (d *lineageDecoder) node(n *LineageNode) error {
	return d.object(func(key string) error {
		switch {
		case keyIs(key, "id"):
			return d.string(&n.ID)
		case keyIs(key, "features"):
			return d.features(&n.Features)
		case keyIs(key, "surrogate"):
			return d.bool(&n.Surrogate)
		}
		return d.skip()
	})
}

func (d *lineageDecoder) edge(e *LineageEdge) error {
	return d.object(func(key string) error {
		switch {
		case keyIs(key, "from"):
			return d.string(&e.From)
		case keyIs(key, "to"):
			return d.string(&e.To)
		case keyIs(key, "label"):
			return d.string(&e.Label)
		case keyIs(key, "surrogate"):
			return d.bool(&e.Surrogate)
		}
		return d.skip()
	})
}

func (d *lineageDecoder) timing(t *LineageTiming) error {
	return d.object(func(key string) error {
		switch {
		case keyIs(key, "dbAccessUs"):
			return d.int(&t.DBAccessUS)
		case keyIs(key, "buildUs"):
			return d.int(&t.BuildUS)
		case keyIs(key, "protectUs"):
			return d.int(&t.ProtectUS)
		case keyIs(key, "totalUs"):
			return d.int(&t.TotalUS)
		}
		return d.skip()
	})
}

// features decodes an object of strings into *m, adding to the map it
// holds; null sets it to nil and a null value stores "".
func (d *lineageDecoder) features(m *map[string]string) error {
	if d.null() {
		*m = nil
		return nil
	}
	if d.peek() != '{' {
		return d.want("an object")
	}
	if *m == nil {
		*m = make(map[string]string)
	}
	f := *m
	return d.object(func(key string) error {
		var v string
		err := d.string(&v)
		f[key] = v
		return err
	})
}

func (d *lineageDecoder) string(dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		*dst = s
		return err
	case 'n':
		return d.literal("null")
	}
	return d.want("a string")
}

func (d *lineageDecoder) bool(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.want("a boolean")
}

func (d *lineageDecoder) float(dst *float64) error {
	if d.null() {
		return nil
	}
	num, err := d.number("a number")
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return d.errorf("number %s out of range", num)
	}
	*dst = f
	return nil
}

func (d *lineageDecoder) int(dst *int64) error {
	if d.null() {
		return nil
	}
	num, err := d.number("an integer")
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return d.errorf("number %s is not an int64", num)
	}
	*dst = n
	return nil
}

// number consumes a number in JSON's grammar, which must come next in
// place of a value of the kind named, and returns its text.
func (d *lineageDecoder) number(kind string) (string, error) {
	s, start, i := d.s, d.i, d.i
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return "", d.want(kind)
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			d.i = i
			return "", d.errorf("want a digit after the decimal point")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			return "", d.errorf("want a digit in the exponent")
		}
	}
	d.i = i
	return s[start:i], nil
}

// str consumes the string that opens at d.i. One without escapes or
// invalid UTF-8 is a substring of d.s; any other is unquoted into a new
// string.
func (d *lineageDecoder) str() (string, error) {
	s, start := d.s, d.i+1
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return s[start:i], nil
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.i = len(s)
	return "", d.errorf("unexpected end of input")
}

// unquote finishes the string whose content opens at start and needs
// work from i on: escapes resolved, a \u surrogate without its pair and
// each byte of invalid UTF-8 replaced by U+FFFD, as encoding/json does.
func (d *lineageDecoder) unquote(start, i int) (string, error) {
	s := d.s
	var b strings.Builder
	b.Grow(i - start + 16)
	b.WriteString(s[start:i])
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return b.String(), nil
		case c < ' ':
			d.i = i
			return "", d.errorf("control character %q in string", c)
		case c == '\\':
			if i+1 == len(s) {
				d.i = i
				return "", d.errorf("unexpected end of input")
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r := hexEscape(s[i:])
				if r < 0 {
					d.i = i
					return "", d.errorf("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r = utf16.DecodeRune(r, hexEscape(s[i:]))
					if r != unicode.ReplacementChar {
						i += 6
					}
				}
				b.WriteRune(r)
				continue
			default:
				d.i = i
				return "", d.errorf("invalid escape \\%c", e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b.WriteRune(r)
			i += size
		}
	}
	d.i = len(s)
	return "", d.errorf("unexpected end of input")
}

// hexEscape returns the rune of the \uXXXX escape s opens with, or -1.
func hexEscape(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[2:6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// keyIs reports whether encoding/json decodes the object key into the
// field named name (ASCII): the key is the name, or folds to it, ASCII
// letters by case and any other rune to the least rune of its
// unicode.SimpleFold orbit (so U+017F ſ matches s and U+212A K matches k).
func keyIs(key, name string) bool {
	if key == name {
		return true
	}
	j := 0
	for _, r := range key {
		if j == len(name) {
			return false
		}
		if r < utf8.RuneSelf {
			r = rune(upperASCII(byte(r)))
		} else {
			for {
				f := unicode.SimpleFold(r)
				if f <= r {
					r = f
					break
				}
				r = f
			}
		}
		if r != rune(upperASCII(name[j])) {
			return false
		}
		j++
	}
	return j == len(name)
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}
