package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"wsnlink/internal/metrics"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

// csvHeader defines the dataset schema. Field order is the on-disk contract;
// ReadCSV validates it.
var csvHeader = []string{
	"distance_m", "tx_power", "max_tries", "retry_delay_s", "queue_cap",
	"pkt_interval_s", "payload_bytes",
	"seed", "packets",
	"mean_snr_db", "sd_snr_db", "mean_rssi_dbm", "sd_rssi_dbm",
	"per", "mean_tries",
	"energy_per_bit_uj", "listen_energy_uj", "radio_energy_per_bit_uj",
	"goodput_kbps",
	"mean_delay_s", "mean_service_time_s", "mean_queue_delay_s",
	"plr", "plr_queue", "plr_radio", "utilization",
	"generated", "delivered", "queue_drops", "radio_drops",
}

// FieldNames returns the dataset column names in schema order — the same
// identifiers the CSV header and the campaign service's NDJSON rows use.
// The returned slice is a copy; callers may keep or mutate it.
func FieldNames() []string {
	out := make([]string, len(csvHeader))
	copy(out, csvHeader)
	return out
}

// Fields renders the row's canonical field encoding, aligned with
// FieldNames. The encoding is byte-stable: RowFromFields followed by Fields
// reproduces the input exactly, which is what lets the service stream
// cached results byte-identically to live ones.
func (r Row) Fields() []string { return rowRecord(r) }

// RowFromFields parses one canonical record (as produced by Fields or read
// from a dataset CSV).
func RowFromFields(rec []string) (Row, error) {
	if len(rec) != len(csvHeader) {
		return Row{}, fmt.Errorf("sweep: record has %d fields, want %d", len(rec), len(csvHeader))
	}
	return parseRow(rec)
}

// rowRecord formats one row using the canonical field encoding; the output
// is byte-stable, so re-encoding a parsed dataset reproduces it exactly.
func rowRecord(r Row) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := strconv.Itoa
	return []string{
		f(r.Config.DistanceM), d(int(r.Config.TxPower)), d(r.Config.MaxTries),
		f(r.Config.RetryDelay), d(r.Config.QueueCap),
		f(r.Config.PktInterval), d(r.Config.PayloadBytes),
		strconv.FormatUint(r.Seed, 10), d(r.Packets),
		f(r.Report.MeanSNR), f(r.Report.SDSNR),
		f(r.Report.MeanRSSI), f(r.Report.SDRSSI),
		f(r.Report.PER), f(r.Report.MeanTries),
		f(r.Report.EnergyPerBitMicroJ), f(r.Report.ListenEnergyMicroJ),
		f(r.Report.RadioEnergyPerBitMicroJ), f(r.Report.GoodputKbps),
		f(r.Report.MeanDelay), f(r.Report.MeanServiceTime), f(r.Report.MeanQueueDelay),
		f(r.Report.PLR), f(r.Report.PLRQueue), f(r.Report.PLRRadio),
		f(r.Report.Utilization),
		d(r.Report.Generated), d(r.Report.Delivered),
		d(r.Report.QueueDrops), d(r.Report.RadioDrops),
	}
}

// Codec is the CSV codec of one dataset schema: the header row and the
// canonical field encoding of the schema's row type R. LinkCodec (the
// legacy link dataset) and ScenarioCodec (the scenario dataset) are the
// two schemas; both share one encoder and one header-validating reader,
// so callers that spool or resume datasets of either kind need only
// choose the codec.
type Codec[R any] struct {
	header []string
	noun   string // "" or "scenario ": names the schema in error messages
	head   string // the exported head reader, named in its argument error
	fields func(R) []string
	parse  func([]string) (R, error)
}

// LinkCodec is the legacy 30-column link dataset schema.
var LinkCodec = &Codec[Row]{header: csvHeader, head: "ReadCSVHead", fields: rowRecord, parse: parseRow}

// RowEncoder streams dataset rows to CSV one at a time — the writing half
// of the streaming sweep pipeline. Call WriteHeader for a fresh dataset
// (skip it when appending to an existing file on resume), Encode per row,
// and Flush whenever the rows written so far must be durable (the
// streaming engine checkpoints a row only after its yield returned, so
// flushing in yield keeps the CSV ahead of the checkpoint).
type RowEncoder[R any] struct {
	c    *Codec[R]
	cw   *csv.Writer
	rows int
}

// Encoder is the link dataset's RowEncoder.
type Encoder = RowEncoder[Row]

// NewEncoder wraps w for streaming row encoding.
func NewEncoder(w io.Writer) *Encoder { return LinkCodec.NewEncoder(w) }

// NewEncoder wraps w for streaming encoding in the codec's schema.
func (c *Codec[R]) NewEncoder(w io.Writer) *RowEncoder[R] {
	return &RowEncoder[R]{c: c, cw: csv.NewWriter(w)}
}

// WriteHeader emits the dataset schema row.
func (e *RowEncoder[R]) WriteHeader() error {
	if err := e.cw.Write(e.c.header); err != nil {
		return fmt.Errorf("sweep: write %sheader: %w", e.c.noun, err)
	}
	return nil
}

// Encode appends one row.
func (e *RowEncoder[R]) Encode(r R) error {
	if err := e.cw.Write(e.c.fields(r)); err != nil {
		return fmt.Errorf("sweep: write %srow %d: %w", e.c.noun, e.rows, err)
	}
	e.rows++
	return nil
}

// Rows returns the number of rows encoded so far.
func (e *RowEncoder[R]) Rows() int { return e.rows }

// Flush forces buffered rows to the underlying writer.
func (e *RowEncoder[R]) Flush() error {
	e.cw.Flush()
	return e.cw.Error()
}

// WriteHead writes the header and rows to w, flushes them, and returns the
// encoder positioned after them — a fresh dataset when rows is empty, or
// the checkpointed prefix a resumed run appends to. ReadHead is its
// reading half.
func (c *Codec[R]) WriteHead(w io.Writer, rows []R) (*RowEncoder[R], error) {
	e := c.NewEncoder(w)
	if err := e.WriteHeader(); err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := e.Encode(r); err != nil {
			return nil, err
		}
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return e, nil
}

// ReadHead parses the header and at most n rows and ignores anything
// after them — including torn trailing data. It is used to realign a
// dataset with its checkpoint after an interrupted run, where only the
// checkpointed prefix is trusted.
func (c *Codec[R]) ReadHead(r io.Reader, n int) ([]R, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: %s: negative row count %d", c.head, n)
	}
	return c.read(r, n)
}

// read parses the header and up to limit rows (all rows when limit < 0).
func (c *Codec[R]) read(r io.Reader, limit int) ([]R, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(c.header)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sweep: read %sheader: %w", c.noun, err)
	}
	for i, h := range header {
		if h != c.header[i] {
			return nil, fmt.Errorf("sweep: %sheader column %d is %q, want %q", c.noun, i, h, c.header[i])
		}
	}
	var rows []R
	for line := 2; ; line++ {
		if limit >= 0 && len(rows) == limit {
			break
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		row, err := c.parse(rec)
		if err != nil {
			return nil, fmt.Errorf("sweep: line %d: %w", line, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteCSV writes the dataset with a header row — the batch convenience
// over Encoder.
func WriteCSV(w io.Writer, rows []Row) error {
	_, err := LinkCodec.WriteHead(w, rows)
	return err
}

// ReadCSV parses a dataset written by WriteCSV.
func ReadCSV(r io.Reader) ([]Row, error) { return LinkCodec.read(r, -1) }

// ReadCSVHead parses at most n rows and ignores anything after them; see
// Codec.ReadHead.
func ReadCSVHead(r io.Reader, n int) ([]Row, error) { return LinkCodec.ReadHead(r, n) }

func parseRow(rec []string) (Row, error) {
	var row Row
	p := recParser{rec: rec}
	row.Config = stack.Config{
		DistanceM:    p.f(),
		TxPower:      phy.PowerLevel(p.i()),
		MaxTries:     p.i(),
		RetryDelay:   p.f(),
		QueueCap:     p.i(),
		PktInterval:  p.f(),
		PayloadBytes: p.i(),
	}
	row.Seed = p.u()
	row.Packets = p.i()
	row.Report = metrics.Report{
		Config:                  row.Config,
		MeanSNR:                 p.f(),
		SDSNR:                   p.f(),
		MeanRSSI:                p.f(),
		SDRSSI:                  p.f(),
		PER:                     p.f(),
		MeanTries:               p.f(),
		EnergyPerBitMicroJ:      p.f(),
		ListenEnergyMicroJ:      p.f(),
		RadioEnergyPerBitMicroJ: p.f(),
		GoodputKbps:             p.f(),
		MeanDelay:               p.f(),
		MeanServiceTime:         p.f(),
		MeanQueueDelay:          p.f(),
		PLR:                     p.f(),
		PLRQueue:                p.f(),
		PLRRadio:                p.f(),
		Utilization:             p.f(),
		Generated:               p.i(),
		Delivered:               p.i(),
		QueueDrops:              p.i(),
		RadioDrops:              p.i(),
	}
	if p.err != nil {
		return Row{}, p.err
	}
	// EnergyEfficiency is derived (1/U_eng) and not a schema column;
	// restore it so a decoded row equals the simulated one.
	if e := row.Report.EnergyPerBitMicroJ; e > 0 && !math.IsInf(e, 1) {
		row.Report.EnergyEfficiency = 1 / e
	}
	return row, nil
}

// recParser consumes CSV fields left to right, capturing the first error.
type recParser struct {
	rec []string
	pos int
	err error
}

func (p *recParser) next() string {
	s := p.rec[p.pos]
	p.pos++
	return s
}

func (p *recParser) f() float64 {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		p.err = fmt.Errorf("field %d: %w", p.pos, err)
	}
	return v
}

func (p *recParser) i() int {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		p.err = fmt.Errorf("field %d: %w", p.pos, err)
	}
	return v
}

func (p *recParser) u() uint64 {
	s := p.next()
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		p.err = fmt.Errorf("field %d: %w", p.pos, err)
	}
	return v
}
