package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"wsnlink/internal/sweep"
)

// parseRowLineRef is the reference row decoder: the line decoded by
// encoding/json into a map of raw values, then the index and every field
// decoded on their own. parseRowLine must accept exactly the lines it
// accepts and decode them to the same row.
func parseRowLineRef(line []byte) (StreamedRow, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		return StreamedRow{}, fmt.Errorf("serve: bad row line: %w", err)
	}
	var out StreamedRow
	raw, ok := m["index"]
	if !ok {
		return StreamedRow{}, fmt.Errorf("serve: row line has no index")
	}
	if err := json.Unmarshal(raw, &out.Index); err != nil {
		return StreamedRow{}, fmt.Errorf("serve: bad row index: %w", err)
	}
	fieldFromJSON := func(v json.RawMessage) (string, error) {
		if len(v) > 0 && v[0] == '"' {
			return strconv.Unquote(string(v))
		}
		return string(v), nil
	}
	if _, scenarioRow := m["scenario"]; scenarioRow {
		rec := make([]string, len(scenarioFieldNames))
		for i, name := range scenarioFieldNames {
			v, ok := m[name]
			if !ok {
				return StreamedRow{}, fmt.Errorf("serve: row line missing field %q", name)
			}
			if i == 0 {
				var kind string
				if err := json.Unmarshal(v, &kind); err != nil {
					return StreamedRow{}, fmt.Errorf("serve: bad scenario tag: %w", err)
				}
				rec[i] = kind
				continue
			}
			f, err := fieldFromJSON(v)
			if err != nil {
				return StreamedRow{}, fmt.Errorf("serve: bad field %q: %w", name, err)
			}
			rec[i] = f
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
	rec := make([]string, len(fieldNames))
	for i, name := range fieldNames {
		v, ok := m[name]
		if !ok {
			return StreamedRow{}, fmt.Errorf("serve: row line missing field %q", name)
		}
		f, err := fieldFromJSON(v)
		if err != nil {
			return StreamedRow{}, fmt.Errorf("serve: bad field %q: %w", name, err)
		}
		rec[i] = f
	}
	row, err := sweep.RowFromFields(rec)
	if err != nil {
		return StreamedRow{}, err
	}
	out.Row = row
	return out, nil
}

// ndjsonLines renders real rows as NDJSON lines (newline stripped): a link
// row, a scenario row, and a link row with +Inf and NaN fields.
func ndjsonLines(tb testing.TB) (link, scn, nonFinite []byte) {
	tb.Helper()
	norm, sp, err := quickSpec().normalize(Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := sweep.RunConfigs(context.Background(), sp.All(), norm.options())
	if err != nil {
		tb.Fatal(err)
	}
	snorm, ssp, err := starSpec().normalize(Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	ss, err := snorm.ScenarioSpec()
	if err != nil {
		tb.Fatal(err)
	}
	srows, err := sweep.RunScenarios(context.Background(), ss, ssp.All()[:1], snorm.options())
	if err != nil {
		tb.Fatal(err)
	}
	r := rows[1]
	r.Report.EnergyPerBitMicroJ = math.Inf(1)
	r.Report.MeanDelay = math.NaN()
	trim := func(b []byte) []byte { return bytes.TrimSuffix(b, []byte("\n")) }
	return trim(appendRowJSON(nil, 7, rows[0].Fields())),
		trim(appendScenarioRowJSON(nil, 3, sweep.ScenarioRowFields(srows[0]))),
		trim(appendRowJSON(nil, 1, r.Fields()))
}

// sameRow compares decoded rows field by field, NaN included.
func sameRow(a, b StreamedRow) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkAgainstReference fails t unless parseRowLine and the reference
// agree on line: both reject, or both accept with the same row. The
// errors for malformed JSON, a non-object line, a missing index and a
// missing field must also read the same.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	got, err := parseRowLine(line)
	want, refErr := parseRowLineRef(line)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("accept/reject differs on %q:\n got err %v\nwant err %v", line, err, refErr)
	}
	if refErr != nil {
		msg := refErr.Error()
		if (strings.HasPrefix(msg, "serve: bad row line") || strings.HasPrefix(msg, "serve: row line")) &&
			err.Error() != msg {
			t.Fatalf("error differs on %q:\n got %v\nwant %v", line, err, refErr)
		}
		return
	}
	if !sameRow(got, want) {
		t.Fatalf("decoded row differs on %q:\n got %#v\nwant %#v", line, got, want)
	}
}

// ndjsonSeeds are the corner cases the decoder must agree with the
// reference on, built around real link, scenario and non-finite rows.
func ndjsonSeeds(tb testing.TB) [][]byte {
	link, scn, nonFinite := ndjsonLines(tb)
	body := func(line []byte) string { return string(line[1:]) } // after the "{"
	return [][]byte{
		link, scn, nonFinite,
		append(append([]byte{}, link...), '\n'),
		[]byte(" \t" + string(link) + "\r\n"),
		// Escaped keys resolve to their real names.
		[]byte(strings.Replace(string(link), `"index"`, `"ind\u0065x"`, 1)),
		[]byte(strings.Replace(string(link), `"per"`, `"p\u0065r"`, 1)),
		[]byte(strings.Replace(string(scn), `"scenario"`, `"\u0073cenario"`, 1)),
		[]byte(strings.Replace(string(link), `"per"`, `"p\u00e9r"`, 1)),
		// Duplicate keys: the last value wins.
		[]byte(`{"index":99,` + body(link)),
		[]byte(strings.Replace(string(link), `}`, `,"index":12,"per":0.5}`, 1)),
		[]byte(strings.Replace(string(link), `}`, `,"per":"x"}`, 1)),
		// Unknown keys, nested values and odd spacing are skipped.
		[]byte(`{"x":{"a":[1,{"b":"}\"]"}],"c":null},"y":[[],{}],` + body(link)),
		[]byte(strings.ReplaceAll(string(link), `,`, " ,\n ")),
		// Index and scenario tag edge values.
		[]byte(`{"index":null,` + body(link)[len(`"index":7,`):]),
		[]byte(`{"index":"7",` + body(link)[len(`"index":7,`):]),
		[]byte(`{"index":7.0,` + body(link)[len(`"index":7,`):]),
		[]byte(`{"index":-0,` + body(link)[len(`"index":7,`):]),
		[]byte(`{"index":99999999999999999999,` + body(link)[len(`"index":7,`):]),
		[]byte(`{"scenario":null,` + body(link)),
		[]byte(`{"scenario":"",` + body(link)),
		[]byte(strings.Replace(string(scn), `"star"`, `"st\u0061r"`, 1)),
		[]byte(strings.Replace(string(scn), `"star"`, `"st\u00e1r"`, 1)),
		[]byte(strings.Replace(string(scn), `"star"`, `7`, 1)),
		// Non-finite spellings and broken quoting.
		[]byte(strings.Replace(string(nonFinite), `"+Inf"`, `"\u002bInf"`, 1)),
		[]byte(strings.Replace(string(nonFinite), `"+Inf"`, `"\/"`, 1)),
		[]byte(strings.Replace(string(nonFinite), `"+Inf"`, `true`, 1)),
		// Not a row at all.
		[]byte(`null`), []byte(`0`), []byte(`[]`), []byte(`"x"`), []byte(`true`),
		[]byte(`{}`), []byte(`{"index":0}`), []byte(`{"distance_m":35}`),
		[]byte(`{nope`), []byte(``), []byte(` `), link[:len(link)/2],
	}
}

// FuzzNDJSONDecoderMatchesReference: for any input, the single-pass
// decoder accepts or rejects exactly when the reference does, and decodes
// an accepted line to the same row. A plain `go test` runs the seeds.
func FuzzNDJSONDecoderMatchesReference(f *testing.F) {
	for _, line := range ndjsonSeeds(f) {
		f.Add(line)
	}
	f.Fuzz(checkAgainstReference)
}

func BenchmarkParseRowLine(b *testing.B) {
	link, scn, _ := ndjsonLines(b)
	for _, bc := range []struct {
		name string
		line []byte
	}{{"link", link}, {"scenario", scn}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.line)))
			for i := 0; i < b.N; i++ {
				if _, err := parseRowLine(bc.line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParseRowLineAllocs pins the decoder's cost: one link row costs at
// most five allocations.
func TestParseRowLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs in regular builds")
	}
	link, _, _ := ndjsonLines(t)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := parseRowLine(link); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Fatalf("parseRowLine allocates %v times per link row, want at most 5", got)
	}
}
