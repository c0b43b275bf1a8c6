package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"wsnlink/internal/sweep"
)

// The NDJSON row wire format: one JSON object per line, an "index" field
// followed by the dataset columns in schema order, each carrying the
// canonical field encoding as a raw JSON number (non-finite values, which
// JSON numbers cannot express, travel as JSON strings). Because the values
// are the exact byte-stable strings the CSV dataset uses, encoding a cached
// dataset and encoding a live run produce identical bytes — the property
// the cache-hit e2e pins — and a decode/re-encode round trip is lossless.

// fieldNames is the dataset schema, shared with the CSV layer;
// scenarioFieldNames is the wider scenario schema (its first column,
// "scenario", is a string and travels JSON-quoted).
var (
	fieldNames         = sweep.FieldNames()
	scenarioFieldNames = sweep.ScenarioFieldNames()
)

// appendFieldJSON appends one canonical field value as a JSON value.
// Finite numbers travel as raw JSON numbers; the non-finite encodings a
// fully-lost configuration produces ("+Inf" energy-per-bit, "NaN" means)
// are not valid JSON numbers and travel as JSON strings instead —
// parseRowLine unquotes them back to the same canonical bytes.
func appendFieldJSON(dst []byte, field string) []byte {
	switch field {
	case "+Inf", "-Inf", "Inf", "NaN":
		return strconv.AppendQuote(dst, field)
	}
	return append(dst, field...)
}

// appendRowJSON renders one NDJSON line (including the trailing newline)
// from a canonical record.
func appendRowJSON(dst []byte, index int, fields []string) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	for i, name := range fieldNames {
		dst = append(dst, ',', '"')
		dst = append(dst, name...)
		dst = append(dst, '"', ':')
		dst = appendFieldJSON(dst, fields[i])
	}
	return append(dst, '}', '\n')
}

// appendScenarioRowJSON renders one scenario NDJSON line. Every column but
// the scenario tag carries the canonical numeric encoding verbatim; the
// tag itself is a JSON string.
func appendScenarioRowJSON(dst []byte, index int, fields []string) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	for i, name := range scenarioFieldNames {
		dst = append(dst, ',', '"')
		dst = append(dst, name...)
		dst = append(dst, '"', ':')
		if i == 0 { // the scenario kind is a string
			dst = strconv.AppendQuote(dst, fields[i])
			continue
		}
		dst = appendFieldJSON(dst, fields[i])
	}
	return append(dst, '}', '\n')
}

// rowSlots maps every key a row line can carry to its slot in a decoded
// line: slot 0 is "index", slot 1+i is scenarioFieldNames[i]. The link
// schema is the scenario schema's columns 1..len(fieldNames), so a link
// row's record is a window of the same slots.
var rowSlots = buildRowSlots()

func buildRowSlots() map[string]int {
	slots := map[string]int{"index": 0}
	for i, name := range scenarioFieldNames {
		slots[name] = 1 + i
	}
	for i, name := range fieldNames {
		if slots[name] != 2+i {
			panic(fmt.Sprintf("serve: link column %q is not scenario column %d", name, 1+i))
		}
	}
	return slots
}

// rowObjectType is what a row line decodes as — an object of raw JSON
// values — named in the error for a line that is some other JSON value.
var rowObjectType = reflect.TypeFor[map[string]json.RawMessage]()

// parseRowLine decodes one NDJSON line back into a row, detecting the
// scenario schema by its "scenario" key. It is one pass over the line:
// json.Valid gates the syntax (encoding/json's rules, no allocation), then
// the top-level members are walked once and each value is kept as a
// substring of a single string copy of the line.
//
// It accepts exactly what decoding the line into a map of raw JSON values
// accepts: unknown keys are ignored, the last of duplicate keys wins,
// escaped keys resolve to their real name, a null index reads as 0 and a
// null scenario tag as the link kind. The canonical field strings are
// recovered verbatim from the raw JSON values, so
// parseRowLine(appendRowJSON(x)) == x byte-for-byte.
func parseRowLine(line []byte) (StreamedRow, error) {
	if !json.Valid(line) {
		return StreamedRow{}, fmt.Errorf("serve: bad row line: %w", syntaxError(line))
	}
	s := string(line)
	vals := make([]string, 1+len(scenarioFieldNames))
	if err := rowMembers(s, vals); err != nil {
		return StreamedRow{}, fmt.Errorf("serve: bad row line: %w", err)
	}
	if vals[0] == "" {
		return StreamedRow{}, fmt.Errorf("serve: row line has no index")
	}
	index, err := parseIndex(vals[0])
	if err != nil {
		return StreamedRow{}, err
	}
	out := StreamedRow{Index: index}
	if vals[1] == "" { // no "scenario" key: the link schema
		rec := vals[2 : 2+len(fieldNames)]
		if err := recordFromJSON(rec, fieldNames); err != nil {
			return StreamedRow{}, err
		}
		if out.Row, err = sweep.RowFromFields(rec); err != nil {
			return StreamedRow{}, err
		}
		return out, nil
	}
	rec := vals[1:]
	if rec[0], err = scenarioTag(rec[0]); err != nil {
		return StreamedRow{}, err
	}
	if err := recordFromJSON(rec[1:], scenarioFieldNames[1:]); err != nil {
		return StreamedRow{}, err
	}
	row, err := sweep.ScenarioRowFromFields(rec)
	if err != nil {
		return StreamedRow{}, err
	}
	out.Row = sweep.Row{Config: row.Config, Report: row.Report,
		Seed: row.Seed, Packets: row.Packets}
	out.Scenario = row.Scenario
	out.Net = row.Net
	return out, nil
}

// syntaxError recovers encoding/json's error for a line json.Valid
// rejected; only the error path pays for the copy.
func syntaxError(line []byte) error {
	var discard bytes.Buffer
	return json.Compact(&discard, line)
}

// rowMembers walks the top-level members of the valid JSON value s once,
// storing the raw value of every key rowSlots knows into vals (the last
// occurrence wins). A null line has no members; any other non-object value
// is an error.
func rowMembers(s string, vals []string) error {
	i := skipSpace(s, 0)
	switch s[i] {
	case '{':
	case 'n':
		return nil
	case '"':
		return &json.UnmarshalTypeError{Value: "string", Type: rowObjectType}
	case '[':
		return &json.UnmarshalTypeError{Value: "array", Type: rowObjectType}
	case 't', 'f':
		return &json.UnmarshalTypeError{Value: "bool", Type: rowObjectType}
	default:
		return &json.UnmarshalTypeError{Value: "number", Type: rowObjectType}
	}
	for i = skipSpace(s, i+1); s[i] != '}'; {
		end := skipString(s, i)
		key := s[i+1 : end-1]
		i = skipSpace(s, skipSpace(s, end)+1) // past the colon
		end = skipValue(s, i)
		if strings.IndexByte(key, '\\') >= 0 {
			key, _ = unescapeASCII(key) // "" for a non-ASCII name: no slot
		}
		if slot, ok := rowSlots[key]; ok {
			vals[slot] = s[i:end]
		}
		if i = skipSpace(s, end); s[i] == ',' {
			i = skipSpace(s, i+1)
		}
	}
	return nil
}

// skipSpace returns the offset of the first non-whitespace byte at or
// after i.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the offset just past the JSON string starting at
// s[i] (its opening quote).
func skipString(s string, i int) int {
	for i++; ; i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
}

// skipValue returns the offset just past the valid JSON value starting at
// s[i].
func skipValue(s string, i int) int {
	switch s[i] {
	case '"':
		return skipString(s, i)
	case '{', '[':
		for depth := 0; ; {
			switch s[i] {
			case '"':
				i = skipString(s, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
	}
	for ; i < len(s); i++ { // a number, true, false or null
		switch s[i] {
		case ' ', '\t', '\n', '\r', ',', '}', ']':
			return i
		}
	}
	return i
}

// unescapeASCII decodes the escapes of a JSON string body. Every name the
// decoder looks up — keys and scenario kinds — is ASCII, so a body that
// decodes to anything else reports ok false: it matches none of them.
func unescapeASCII(body string) (name string, ok bool) {
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c >= utf8.RuneSelf {
			return "", false
		}
		if c == '\\' {
			i++
			switch c = body[i]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				r, err := strconv.ParseUint(body[i+1:i+5], 16, 16)
				if err != nil || r >= utf8.RuneSelf {
					return "", false
				}
				c = byte(r)
				i += 4
			} // '"', '\\' and '/' stand for themselves
		}
		out = append(out, c)
	}
	return string(out), true
}

// parseIndex reads the raw "index" value the way encoding/json fills an
// int: a null leaves it 0, and anything but an integer in range is an
// error.
func parseIndex(raw string) (int, error) {
	if raw == "null" {
		return 0, nil
	}
	if raw[0] != '-' && (raw[0] < '0' || raw[0] > '9') {
		return 0, fmt.Errorf("serve: bad row index: not a number")
	}
	n, err := strconv.ParseInt(raw, 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("serve: bad row index: %w", err)
	}
	return int(n), nil
}

// scenarioTag reads the raw scenario value the way encoding/json fills a
// string: a JSON string unescaped, a null as "" (the link kind).
func scenarioTag(raw string) (string, error) {
	switch {
	case raw == "null":
		return "", nil
	case raw[0] != '"':
		return "", fmt.Errorf("serve: bad scenario tag: not a string")
	}
	tag := raw[1 : len(raw)-1]
	if strings.IndexByte(tag, '\\') >= 0 {
		if name, ok := unescapeASCII(tag); ok {
			return name, nil
		}
	}
	// A tag left with non-ASCII bytes or escapes names no kind, so
	// ParseKind rejects it after the columns are checked, as it would the
	// decoded name.
	return tag, nil
}

// recordFromJSON turns the raw JSON values of a record's columns into
// canonical field strings in place — numbers verbatim, string-quoted
// non-finite values unquoted — reporting the first missing or malformed
// column in schema order.
func recordFromJSON(rec, names []string) error {
	for i, name := range names {
		v := rec[i]
		if v == "" {
			return fmt.Errorf("serve: row line missing field %q", name)
		}
		if v[0] != '"' {
			continue
		}
		f, err := strconv.Unquote(v)
		if err != nil {
			return fmt.Errorf("serve: bad field %q: %w", name, err)
		}
		rec[i] = f
	}
	return nil
}
