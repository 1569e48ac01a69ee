package plus

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
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
