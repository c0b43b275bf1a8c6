package sim

import (
	"fmt"
	"math"

	"wsnlink/internal/frame"
	"wsnlink/internal/mac"
	"wsnlink/internal/stack"
)

// CheckInvariants verifies the conservation laws every run must satisfy,
// independent of channel, seed, or engine (DES or fast).
// The validation harness applies it to every oracle run; tests can apply it
// to any Result. A violation means a counting bug in the simulator, not a
// statistical fluke — every relation below is exact.
func (c Counters) CheckInvariants(cfg stack.Config) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sim: invariant violated: "+format, args...)
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"Generated", c.Generated}, {"QueueDrops", c.QueueDrops},
		{"RadioDrops", c.RadioDrops}, {"Delivered", c.Delivered},
		{"Duplicates", c.Duplicates}, {"Acked", c.Acked},
		{"TotalTransmissions", c.TotalTransmissions},
		{"AckedTransmissions", c.AckedTransmissions},
		{"Serviced", c.Serviced}, {"SNRSamples", c.SNRSamples},
	} {
		if n.v < 0 {
			return fail("%s = %d is negative", n.name, n.v)
		}
	}

	// Packet conservation: every generated packet either overflowed the
	// queue or entered service, and service outcomes partition into
	// delivered and radio-dropped.
	if c.Generated != c.QueueDrops+c.Serviced {
		return fail("Generated %d != QueueDrops %d + Serviced %d",
			c.Generated, c.QueueDrops, c.Serviced)
	}
	if c.RadioDrops != c.Serviced-c.Delivered {
		return fail("RadioDrops %d != Serviced %d - Delivered %d",
			c.RadioDrops, c.Serviced, c.Delivered)
	}
	if c.Acked > c.Delivered {
		return fail("Acked %d > Delivered %d", c.Acked, c.Delivered)
	}
	if c.DeliveredWithDelay != c.Delivered {
		return fail("DeliveredWithDelay %d != Delivered %d",
			c.DeliveredWithDelay, c.Delivered)
	}

	// Attempt accounting: exactly one ACKed transmission per ACKed packet,
	// and between 1 and MaxTries attempts per serviced packet.
	if c.AckedTransmissions != c.Acked {
		return fail("AckedTransmissions %d != Acked %d", c.AckedTransmissions, c.Acked)
	}
	if c.TotalTransmissions < c.Serviced || c.TotalTransmissions > c.Serviced*cfg.MaxTries {
		return fail("TotalTransmissions %d outside [Serviced %d, Serviced×MaxTries %d]",
			c.TotalTransmissions, c.Serviced, c.Serviced*cfg.MaxTries)
	}
	if c.SumTriesAcked < float64(c.Acked) || c.SumTriesAcked > float64(c.Acked*cfg.MaxTries) {
		return fail("SumTriesAcked %v outside [Acked %d, Acked×MaxTries %d]",
			c.SumTriesAcked, c.Acked, c.Acked*cfg.MaxTries)
	}
	if c.SNRSamples != c.Serviced {
		return fail("SNRSamples %d != Serviced %d (one per first attempt)",
			c.SNRSamples, c.Serviced)
	}
	if c.ArrivalsSeen > c.Generated {
		return fail("ArrivalsSeen %d > Generated %d", c.ArrivalsSeen, c.Generated)
	}
	if c.MaxQueueOccupancy > cfg.QueueCap {
		return fail("MaxQueueOccupancy %d > QueueCap %d", c.MaxQueueOccupancy, cfg.QueueCap)
	}

	// Radio-state accounting: bits, TX energy and listen time follow
	// exactly from the attempt counts (E = state_time × state_current × V
	// is asserted against the datasheet constants in package valid).
	frameBits := int64(8 * frame.OnAirBytes(cfg.PayloadBytes))
	if c.TotalTxBits != int64(c.TotalTransmissions)*frameBits {
		return fail("TotalTxBits %d != TotalTransmissions %d × frame bits %d",
			c.TotalTxBits, c.TotalTransmissions, frameBits)
	}
	wantTxE := float64(c.TotalTxBits) * cfg.TxPower.TxEnergyPerBitMicroJ()
	if !approxEq(c.TxEnergyMicroJ, wantTxE) {
		return fail("TxEnergyMicroJ %v != TotalTxBits × energy/bit = %v", c.TxEnergyMicroJ, wantTxE)
	}
	wantListen := float64(c.Acked)*mac.AckTime +
		float64(c.TotalTransmissions-c.AckedTransmissions)*mac.AckWaitTimeout
	if !approxEq(c.ListenTimeS, wantListen) {
		return fail("ListenTimeS %v != Acked×T_ACK + failures×T_waitACK = %v",
			c.ListenTimeS, wantListen)
	}
	if c.SumServiceTime < 0 || c.SumDelay < 0 || c.SumQueueOccupancy < 0 {
		return fail("negative accumulated time/occupancy (%v, %v, %v)",
			c.SumServiceTime, c.SumDelay, c.SumQueueOccupancy)
	}
	return nil
}

// approxEq compares two accumulated float sums, allowing only the rounding
// drift of streaming addition (relative 1e-9, absolute 1e-12).
func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-12 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
