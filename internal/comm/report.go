package comm

import (
	"encoding/binary"
	"fmt"

	"dss/internal/stats"
)

// countersSize is the encoded size of one PE's stats.Counters: the struct
// is fixed-size, so every snapshot has exactly this many bytes.
var countersSize = binary.Size(stats.Counters{})

// AllgatherReport exchanges every PE's accounting snapshot and returns a
// machine-wide report, identical on every member — the SPMD counterpart of
// Machine.Report for runs where each process owns a single Comm (NewComm).
// Every PE's counters are snapshotted before the exchange, so the gather's
// own traffic is excluded from the report: the returned statistics match
// what an in-process Machine.Report would have shown at the same point,
// bit for bit. gid selects the tag namespace of the internal collective and
// must be unused by concurrently live groups.
func AllgatherReport(c *Comm, model stats.CostModel, gid int) *stats.Report {
	c.flushWall() // close the running wall span so it is part of the snapshot
	// Appending encodes a value copy: the collective below mutates the
	// live counters.
	snap, err := binary.Append(make([]byte, 0, countersSize), binary.LittleEndian, &c.st.Counters)
	if err != nil {
		panic("comm: encode stats snapshot: " + err.Error())
	}
	g := NewGroup(c, WorldRanks(c.P()), gid)
	parts := g.Allgatherv(snap)
	pes := make([]*stats.PE, len(parts))
	for i, part := range parts {
		pe := &stats.PE{Rank: i}
		n, err := binary.Decode(part, binary.LittleEndian, &pe.Counters)
		if err != nil || n != len(part) {
			panic(fmt.Sprintf("comm: corrupt stats snapshot from PE %d (%d of %d bytes): %v", i, len(part), countersSize, err))
		}
		pes[i] = pe
	}
	c.Release(parts...)
	return stats.NewReport(pes, model)
}
