package pt

import (
	"github.com/memgaze/memgaze-go/internal/dataflow"
	"github.com/memgaze/memgaze-go/internal/instrument"
	"github.com/memgaze/memgaze-go/internal/trace"
)

// ConstPoolAddr is the pseudo-address assigned to decoded Constant
// loads. The paper's analysis views all Constant loads as accessing the
// same address with a total footprint of one unit (§III-B), so the
// decoder folds every constant proxy onto this address.
const ConstPoolAddr = 0x100

// DecodeStats reports decoding quality for one trace build. The byte
// counters partition every raw byte the build saw: PacketBytes were
// decoded, SyncBytes were stream framing, and SkippedBytes were lost —
// nothing is dropped on the floor unaccounted.
type DecodeStats struct {
	Events       int // raw events decoded from packets
	Records      int // load-level records reconstructed
	SkippedBytes int // payload bytes lost to resync (buffer wrap, corruption, truncation)
	OrphanEvents int // events with no annotation (should be zero)
	PartialPairs int // two-operand loads cut at a window boundary

	PacketBytes    int // bytes decoded as FUP/PTW/TSC packets
	SyncBytes      int // PSB patterns and pad bytes — framing, never payload
	Resyncs        int // corruption points that forced a rescan to the next PSB
	CorruptSamples int // samples that needed at least one resync
	EstLostEvents  int // SkippedBytes scaled by the observed bytes-per-event rate
}

// Add accumulates o into ds. The additive counters sum; EstLostEvents
// is recomputed from the merged byte counters so the estimate stays
// consistent however the per-sample stats were grouped.
func (ds *DecodeStats) Add(o DecodeStats) {
	ds.Events += o.Events
	ds.Records += o.Records
	ds.SkippedBytes += o.SkippedBytes
	ds.OrphanEvents += o.OrphanEvents
	ds.PartialPairs += o.PartialPairs
	ds.PacketBytes += o.PacketBytes
	ds.SyncBytes += o.SyncBytes
	ds.Resyncs += o.Resyncs
	ds.CorruptSamples += o.CorruptSamples
	ds.EstLostEvents = 0
	if ds.PacketBytes > 0 {
		ds.EstLostEvents = ds.SkippedBytes * ds.Events / ds.PacketBytes
	}
}

// eventsToRecords pairs consecutive ptwrite events belonging to the same
// load (base then index), applies the static literals from the
// annotation file, and produces load-level records.
func eventsToRecords(events []Event, ann *instrument.Annotations, ds *DecodeStats) []trace.Record {
	recs := make([]trace.Record, 0, len(events))
	for i := 0; i < len(events); i++ {
		ev := events[i]
		pn := ann.PTWrites[ev.IP]
		if pn == nil {
			ds.OrphanEvents++
			continue
		}
		ln := ann.Loads[pn.LoadAddr]
		if ln == nil {
			ds.OrphanEvents++
			continue
		}
		rec := trace.Record{
			IP:      pn.LoadAddr,
			TS:      ev.TS,
			Class:   ln.Class,
			Implied: uint32(ln.ImpliedConst),
			Stride:  int32(ln.Stride),
			Line:    ln.Line,
			Proc:    ln.Proc,
		}
		switch {
		case pn.Operand == instrument.OpndMarker || ln.Class == dataflow.Constant:
			rec.Addr = ConstPoolAddr
		case pn.NumOperands == 1:
			rec.Addr = ev.Val + uint64(ln.Disp)
		default:
			// Base followed by index. The pair must be adjacent and
			// belong to the same load; a window boundary can cut it.
			if pn.Operand != instrument.OpndBase || i+1 >= len(events) {
				ds.PartialPairs++
				continue
			}
			next := events[i+1]
			np := ann.PTWrites[next.IP]
			if np == nil || np.LoadAddr != pn.LoadAddr || np.Operand != instrument.OpndIndex {
				ds.PartialPairs++
				continue
			}
			i++
			rec.Addr = ev.Val + next.Val*uint64(ln.Scale) + uint64(ln.Disp)
			rec.TS = next.TS
		}
		recs = append(recs, rec)
	}
	return recs
}
