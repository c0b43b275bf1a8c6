package sweep

import (
	"fmt"
	"io"
	"strconv"

	"wsnlink/internal/scenario"
)

// scenarioNetHeader names the per-scenario network columns appended after
// the link schema. Every scenario kind writes all of them; columns a kind
// does not model are zero.
var scenarioNetHeader = []string{
	"nodes", "offered_load_pps", "agg_goodput_kbps",
	"collision_rate", "cca_fail_rate",
	"duty_cycle", "wake_interval_s", "lpl_latency_s",
	"interferer_duty", "snr_penalty_db",
	"speed_mps", "mean_distance_m",
}

// scenarioCSVHeader is the scenario dataset schema: the scenario kind,
// the full link row schema, then the network columns.
var scenarioCSVHeader = buildScenarioHeader()

func buildScenarioHeader() []string {
	out := make([]string, 0, 1+len(csvHeader)+len(scenarioNetHeader))
	out = append(out, "scenario")
	out = append(out, csvHeader...)
	out = append(out, scenarioNetHeader...)
	return out
}

// ScenarioFieldNames returns the scenario dataset column names in schema
// order. The returned slice is a copy; callers may keep or mutate it.
func ScenarioFieldNames() []string {
	out := make([]string, len(scenarioCSVHeader))
	copy(out, scenarioCSVHeader)
	return out
}

// ScenarioRowFields renders one scenario row using the canonical field
// encoding, aligned with ScenarioFieldNames. Like the link encoding it is
// byte-stable: ScenarioRowFromFields followed by ScenarioRowFields
// reproduces the input exactly.
func ScenarioRowFields(r scenario.Row) []string {
	base := rowRecord(scenarioLinkRow(r))
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	out := make([]string, 0, len(scenarioCSVHeader))
	out = append(out, string(r.Scenario))
	out = append(out, base...)
	out = append(out,
		strconv.Itoa(r.Net.Nodes),
		f(r.Net.OfferedLoadPPS), f(r.Net.AggGoodputKbps),
		f(r.Net.CollisionRate), f(r.Net.CCAFailRate),
		f(r.Net.DutyCycle), f(r.Net.WakeIntervalS), f(r.Net.LatencyS),
		f(r.Net.InterfererDuty), f(r.Net.SNRPenaltyDB),
		f(r.Net.SpeedMPS), f(r.Net.MeanDistanceM),
	)
	return out
}

// ScenarioRowFromFields parses one canonical scenario record.
func ScenarioRowFromFields(rec []string) (scenario.Row, error) {
	if len(rec) != len(scenarioCSVHeader) {
		return scenario.Row{}, fmt.Errorf("sweep: scenario record has %d fields, want %d",
			len(rec), len(scenarioCSVHeader))
	}
	kind, err := scenario.ParseKind(rec[0])
	if err != nil {
		return scenario.Row{}, err
	}
	base, err := RowFromFields(rec[1 : 1+len(csvHeader)])
	if err != nil {
		return scenario.Row{}, err
	}
	p := recParser{rec: rec[1+len(csvHeader):]}
	net := scenario.NetStats{
		Nodes:          p.i(),
		OfferedLoadPPS: p.f(),
		AggGoodputKbps: p.f(),
		CollisionRate:  p.f(),
		CCAFailRate:    p.f(),
		DutyCycle:      p.f(),
		WakeIntervalS:  p.f(),
		LatencyS:       p.f(),
		InterfererDuty: p.f(),
		SNRPenaltyDB:   p.f(),
		SpeedMPS:       p.f(),
		MeanDistanceM:  p.f(),
	}
	if p.err != nil {
		return scenario.Row{}, p.err
	}
	return scenario.Row{
		Scenario: kind,
		Config:   base.Config,
		Seed:     base.Seed,
		Packets:  base.Packets,
		Report:   base.Report,
		Net:      net,
	}, nil
}

// ScenarioCodec is the scenario dataset schema: the scenario kind, the
// link columns, then the network columns.
var ScenarioCodec = &Codec[scenario.Row]{header: scenarioCSVHeader, noun: "scenario ",
	head: "ReadScenarioCSVHead", fields: ScenarioRowFields, parse: ScenarioRowFromFields}

// ScenarioEncoder is the scenario dataset's RowEncoder, with the same
// durability contract as Encoder (flush in yield to keep the CSV ahead of
// the checkpoint).
type ScenarioEncoder = RowEncoder[scenario.Row]

// NewScenarioEncoder wraps w for streaming scenario row encoding.
func NewScenarioEncoder(w io.Writer) *ScenarioEncoder { return ScenarioCodec.NewEncoder(w) }

// WriteScenarioCSV writes a scenario dataset with a header row.
func WriteScenarioCSV(w io.Writer, rows []scenario.Row) error {
	_, err := ScenarioCodec.WriteHead(w, rows)
	return err
}

// ReadScenarioCSV parses a scenario dataset written by WriteScenarioCSV.
func ReadScenarioCSV(r io.Reader) ([]scenario.Row, error) { return ScenarioCodec.read(r, -1) }

// ReadScenarioCSVHead parses at most n scenario rows and ignores anything
// after them; see Codec.ReadHead.
func ReadScenarioCSVHead(r io.Reader, n int) ([]scenario.Row, error) {
	return ScenarioCodec.ReadHead(r, n)
}
