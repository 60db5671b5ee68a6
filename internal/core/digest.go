package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sort"
	"strings"

	"tictac/internal/graph"
	"tictac/internal/timing"
)

// The digest functions give the service layer stable content-addressed keys
// for its schedule cache: two requests share a cache slot exactly when their
// graphs, cost models and policies are semantically identical. Stability
// contract: a digest is a pure function of semantic content — op names,
// kinds, tags, payloads and edges for graphs; every cost-model field for
// platforms — and is independent of construction order (ops and edges are
// canonicalized by name, map iteration is sorted). Any semantic change (an
// op's bytes, an extra edge, a device retag, a bandwidth override) changes
// the digest. The digest is NOT guaranteed stable across releases that
// change the canonical encoding; it is a cache key, not an archival format.

// GraphDigest returns a hex SHA-256 digest of the graph's semantic content.
// Two graphs built in different insertion orders but describing the same
// named ops, attributes and edges digest identically.
//
// Each op's fields and sorted successor names are encoded into one reused
// buffer, which reaches the hash in large writes: the byte stream is the
// same as writing every field separately.
func GraphDigest(g *graph.Graph) string {
	h := sha256.New()
	ops := slices.Clone(g.Ops())
	slices.SortFunc(ops, func(a, b *graph.Op) int { return strings.Compare(a.Name, b.Name) })
	const flushAt = 32 << 10
	buf := make([]byte, 0, 2*flushAt)
	var succs []string
	for _, op := range ops {
		buf = appendString(buf, op.Name)
		buf = append(buf, byte(op.Kind))
		buf = appendString(buf, op.Device)
		buf = appendString(buf, op.Resource)
		buf = appendInt64(buf, op.Bytes)
		buf = appendInt64(buf, op.FLOPs)
		buf = appendString(buf, op.Param)
		succs = succs[:0]
		for _, s := range op.Out() {
			succs = append(succs, s.Name)
		}
		slices.Sort(succs)
		buf = appendInt64(buf, int64(len(succs)))
		for _, s := range succs {
			buf = appendString(buf, s)
		}
		if len(buf) >= flushAt {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// PlatformDigest returns a hex SHA-256 digest of every cost-model field of
// the platform. Floats are digested by their exact bit patterns, so any
// change to any parameter — however small — changes the digest.
func PlatformDigest(p timing.Platform) string {
	h := sha256.New()
	writePlatform(h, p)
	return hex.EncodeToString(h.Sum(nil))
}

// PlatformMapDigest returns a hex SHA-256 digest of a heterogeneous cost
// model: the default platform plus every device and channel override in
// sorted key order. A nil map digests like an empty one, and a PlatformMap
// with no overrides digests differently from its bare default Platform
// (they are different cost-model types, even though their costs agree).
func PlatformMapDigest(m *timing.PlatformMap) string {
	h := sha256.New()
	writeString(h, "platform-map")
	if m == nil {
		return hex.EncodeToString(h.Sum(nil))
	}
	writePlatform(h, m.Default)
	devices := make([]string, 0, len(m.Devices))
	for d := range m.Devices {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	writeInt64(h, int64(len(devices)))
	for _, d := range devices {
		writeString(h, d)
		writePlatform(h, m.Devices[d])
	}
	channels := make([]string, 0, len(m.Channels))
	for c := range m.Channels {
		channels = append(channels, c)
	}
	sort.Strings(channels)
	writeInt64(h, int64(len(channels)))
	for _, c := range channels {
		cc := m.Channels[c]
		writeString(h, c)
		writeFloat(h, cc.Bandwidth)
		writeFloat(h, cc.Latency)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ScheduleDigest returns a hex SHA-256 digest of a schedule's algorithm,
// normalized order and rank classes (nil = the unscheduled baseline). Two
// schedules that enforce the same priorities digest identically.
func ScheduleDigest(s *Schedule) string {
	h := sha256.New()
	writeString(h, "schedule")
	if s == nil {
		return hex.EncodeToString(h.Sum(nil))
	}
	writeString(h, string(s.Algorithm))
	writeInt64(h, int64(len(s.Order)))
	for _, k := range s.Order {
		writeString(h, k)
		writeInt64(h, int64(s.Rank[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writePlatform(h hash.Hash, p timing.Platform) {
	writeString(h, p.Name)
	writeFloat(h, p.ComputeFLOPS)
	writeFloat(h, p.ComputeOverhead)
	writeFloat(h, p.NetBandwidth)
	writeFloat(h, p.NetLatency)
	writeFloat(h, p.MemBandwidth)
	writeFloat(h, p.Jitter)
}

// writeString writes a length-prefixed string, so that concatenations of
// adjacent fields cannot collide ("ab"+"c" vs "a"+"bc").
func writeString(h hash.Hash, s string) {
	writeInt64(h, int64(len(s)))
	h.Write([]byte(s))
}

func writeInt64(h hash.Hash, v int64) {
	var buf [8]byte
	h.Write(appendInt64(buf[:0], v))
}

func writeFloat(h hash.Hash, f float64) {
	writeInt64(h, int64(math.Float64bits(f)))
}

// appendString appends s length-prefixed, the encoding writeString hashes.
func appendString(buf []byte, s string) []byte {
	return append(appendInt64(buf, int64(len(s))), s...)
}

func appendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}
