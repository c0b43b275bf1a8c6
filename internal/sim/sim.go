package sim

import (
	"wsnlink/internal/channel"
	"wsnlink/internal/obs"
	"wsnlink/internal/phy"
	"wsnlink/internal/stack"
)

// PacketRecord is the per-packet metadata both motes logged in the paper's
// campaign (RSSI, LQI, actual transmission count, queue size, timestamps).
type PacketRecord struct {
	ID           int
	GenTime      float64 // application send time
	ServiceStart float64 // handed to the MAC
	ServiceEnd   float64 // ACKed, given up, or dropped
	Tries        int     // actual number of transmissions
	Delivered    bool    // received at least once at the receiver
	Acked        bool    // sender received a link-layer ACK
	QueueDrop    bool    // dropped on queue overflow, never transmitted
	SNR          float64 // at the first transmission attempt
	RSSI         float64
	LQI          int
	QueueLen     int // queue occupancy the packet found on arrival
}

// Counters aggregates a run. Metric computation lives in package metrics;
// the simulator only counts.
type Counters struct {
	Generated          int
	QueueDrops         int
	RadioDrops         int // exhausted N_maxTries without an ACK and undelivered
	Delivered          int // unique packets received
	Duplicates         int // retransmissions received again after an ACK loss
	Acked              int
	TotalTransmissions int
	AckedTransmissions int
	TotalTxBits        int64
	TxEnergyMicroJ     float64
	ListenTimeS        float64 // radio in RX: ACK reception + ACK-wait timeouts
	SumServiceTime     float64 // over packets that entered service
	Serviced           int
	SumDelay           float64 // gen→service-end, over delivered packets
	DeliveredWithDelay int
	SumTriesAcked      float64 // over ACKed packets (the paper's N_tries)
	SumQueueOccupancy  float64 // occupancy seen by arrivals
	ArrivalsSeen       int
	SumSNR, SumSNRSq   float64 // per first transmission attempt
	SumRSSI, SumRSSISq float64
	SNRSamples         int
	MaxQueueOccupancy  int
}

// Result is the outcome of simulating one configuration.
type Result struct {
	Config   stack.Config
	Duration float64 // simulated seconds from first generation to last completion
	Counters Counters
	// Records is populated only when Options.RecordPackets is set.
	Records []PacketRecord
}

// Options configures a simulation run.
type Options struct {
	// Packets is the number of packets the sender generates
	// (paper: 4500 per configuration).
	Packets int
	// Seed drives all randomness (channel, backoffs, losses).
	Seed uint64
	// Engine selects the engine Simulate dispatches to: the Monte-Carlo
	// fast path (EngineFast, the zero value) or the sampled-backoff
	// engine (EngineDES). The explicit entry points
	// (RunContext, RunFastContext, RunBatch) ignore it.
	Engine EngineKind
	// ErrorModel defaults to the paper-calibrated CC2420 model.
	ErrorModel phy.ErrorModel
	// Channel defaults to the hallway parameters.
	Channel *channel.Params
	// RecordPackets keeps the full per-packet log in the Result.
	RecordPackets bool
	// Obs, if non-nil, receives pipeline telemetry: per-stage simulated
	// time (generator → queue → MAC → channel → RX) and the packet
	// counter. nil (the default) adds no overhead beyond a pointer test.
	Obs *obs.Metrics
	// Trace, if non-nil, receives per-packet lifecycle events (enqueue,
	// queue drop, backoff, CCA, TX attempt, ACK timeout, delivery/loss,
	// RX decode) on the simulated clock. nil (the default) costs one
	// pointer test per emission site.
	Trace *obs.SpanContext
}

// Shared defaults: materialized once so the per-run default path performs no
// allocations (boxing a Calibrated into the ErrorModel interface and taking
// the address of fresh Params both allocate). Both values are read-only.
var (
	defaultErrorModel    phy.ErrorModel = phy.NewCalibrated()
	defaultChannelParams                = channel.DefaultParams()
)

func (o Options) withDefaults() Options {
	if o.Packets == 0 {
		o.Packets = 4500
	}
	if o.ErrorModel == nil {
		o.ErrorModel = defaultErrorModel
	}
	if o.Channel == nil {
		o.Channel = &defaultChannelParams
	}
	return o
}
