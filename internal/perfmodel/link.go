package perfmodel

// LinkModel prices simulated network movement between cluster nodes the
// same way the GPU models price kernel time: a fixed per-message latency
// plus bytes over bandwidth. Scans are bandwidth-bound (Sirin &
// Ailamaki), so a placement cost model that ignores bytes moved would
// systematically undercharge remote execution; the coordinator folds
// TransferSeconds into its deadline estimates via Estimates.LinkSeconds.
// The zero value is a free, infinitely fast link (TransferSeconds
// returns 0), which degrades cluster planning to movement-blind costs.
type LinkModel struct {
	// LatencySeconds is the fixed per-transfer cost (connection setup,
	// request round-trip), paid once per message regardless of size.
	LatencySeconds float64
	// BandwidthMBps is the sustained link bandwidth in MiB per second.
	BandwidthMBps float64
}

// TransferSeconds returns the simulated time to move the given byte
// volume over the link. Zero or negative byte counts cost nothing — no
// message is sent.
func (l LinkModel) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	t := l.LatencySeconds
	if l.BandwidthMBps > 0 {
		t += float64(bytes) / (l.BandwidthMBps * (1 << 20))
	}
	return t
}

// StreamSeconds returns the simulated time to move the given byte
// volume as a stream of msgs messages — the shape of a shard
// re-replication copy, which ships in messages so a mid-stream failure
// only re-sends from the last message boundary. The per-message latency
// is paid msgs times; the byte cost is identical to a single transfer.
// msgs < 1 is treated as one message, so StreamSeconds(b, 1) ==
// TransferSeconds(b).
func (l LinkModel) StreamSeconds(bytes int64, msgs int) float64 {
	if bytes <= 0 {
		return 0
	}
	if msgs < 1 {
		msgs = 1
	}
	t := l.LatencySeconds * float64(msgs)
	if l.BandwidthMBps > 0 {
		t += float64(bytes) / (l.BandwidthMBps * (1 << 20))
	}
	return t
}

// PaperLink returns the default cluster interconnect: gigabit Ethernet
// (125 MiB/s sustained, 0.5 ms latency) — deliberately slow relative to
// the Tesla C2070's PCIe x16 link (BandwidthMBs), so movement matters to
// placement the way it does in Theseus-class distributed engines.
func PaperLink() LinkModel {
	return LinkModel{LatencySeconds: 0.0005, BandwidthMBps: 125}
}
