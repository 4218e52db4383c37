package naas

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sync"
)

// loadVec is the admission request's per-switch load vector. It decodes
// like a plain []int field — same accepted inputs, same values — without
// encoding/json reflecting over every element: on a 2047-switch fabric
// that reflection was most of the handler's time. encoding/json still
// owns the envelope (syntax, unknown fields, key matching) and hands
// UnmarshalJSON the value's bytes only after validating them.
type loadVec []int

// UnmarshalJSON scans a JSON array of integers into the receiver's
// backing array. Like encoding/json decoding into a reused []int, a
// null element leaves the slot as it is, which matters when a body
// repeats the key — so whoever recycles a loadVec clears its whole
// capacity first (decodePlace does).
func (l *loadVec) UnmarshalJSON(b []byte) error {
	full := (*l)[:cap(*l)]
	if len(b) > 0 && b[0] == 'n' { // null: the zero slice
		clear(full)
		*l = full[:0]
		return nil
	}
	if len(b) < 2 || b[0] != '[' {
		return typeError(b, reflect.TypeOf(loadVec(nil)))
	}
	n := 0
	i := skipSpace(b, 1)
	for i < len(b) && b[i] != ']' {
		if n == len(full) {
			full = append(full, 0)
			full = full[:cap(full)]
		}
		c := b[i]
		switch {
		case c == 'n':
			i += len("null")
		case c == '-' || c-'0' <= 9:
			start := i
			if c == '-' {
				i++
			}
			var u uint64
			digits := i
			for ; i < len(b) && b[i]-'0' <= 9; i++ {
				u = u*10 + uint64(b[i]-'0')
			}
			// 19 digits cannot wrap a uint64; a 20th is out of range for
			// every int anyway.
			limit := uint64(math.MaxInt)
			if c == '-' {
				limit++
			}
			if i-digits > 19 || u > limit || (i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
				return typeError(b[start:], reflect.TypeOf(0))
			}
			if c == '-' {
				full[n] = int(-u)
			} else {
				full[n] = int(u)
			}
		default:
			return typeError(b[i:], reflect.TypeOf(0))
		}
		n++
		if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	if n == 0 { // encoding/json swaps in a fresh empty slice here
		clear(full)
	}
	*l = full[:n]
	return nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// typeError reports the JSON value starting at b as unusable for a Go
// value of type t, in encoding/json's own error type and wording (the
// decoder adds the struct and field names).
func typeError(b []byte, t reflect.Type) error {
	end := 0
	for end < len(b) && b[end] != ',' && b[end] != ']' && b[end] > ' ' {
		end++
	}
	kind := "number " + string(b[:end])
	switch {
	case end == 0:
	case b[0] == '"':
		kind = "string"
	case b[0] == '{':
		kind = "object"
	case b[0] == '[':
		kind = "array"
	case b[0] == 't' || b[0] == 'f':
		kind = "bool"
	}
	return &json.UnmarshalTypeError{Value: kind, Type: t}
}

// maxPlaceBody bounds an admission request body.
const maxPlaceBody = 4 << 20

// placeScratch is the memory one admission needs and the next can
// reuse: the decoded load vector and the lease PlaceInto fills, each a
// switch-count-sized slice.
type placeScratch struct {
	load  loadVec
	lease Lease
}

var placePool = sync.Pool{New: func() any { return new(placeScratch) }}

// decodePlace reads one admission request from body (the caller bounds
// it) into sc's load buffer.
func decodePlace(body io.Reader, sc *placeScratch) (placeRequest, error) {
	clear(sc.load[:cap(sc.load)])
	req := placeRequest{Load: sc.load[:0]}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	sc.load = req.Load
	return req, err
}
