package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"hypatia"
)

// observations are the outputs of one repeat that the benchmark checks.
type observations struct {
	Delivered uint64
	Drops     []uint64  // in dropReasons order; nil without a DES
	Events    uint64    // DES events processed
	Retx      int64     // TCP retransmissions
	Timeouts  int64     // TCP retransmission timeouts
	Goodput   []float64 // per flow, bits/s
	UDP       []udpObs
	Pings     []pingObs
	Pairs     []hypatia.PairStats
}

type udpObs struct {
	Sent, Delivered int64 // packets
}

type pingObs struct {
	Sent, Replied, Lost int
	RTTs                []float64 // seconds, replied pings in sequence order
	Bound               float64   // the pair's geodesic RTT, seconds
}

// violations lists every physical or accounting invariant the outputs
// break.
func (o *observations) violations() []string {
	var out []string
	for i, p := range o.Pings {
		if p.Replied+p.Lost != p.Sent {
			out = append(out, fmt.Sprintf("ping %d: %d replies + %d losses != %d sent", i, p.Replied, p.Lost, p.Sent))
		}
		for _, rtt := range p.RTTs {
			if rtt < p.Bound {
				out = append(out, fmt.Sprintf("ping %d: RTT %gs below the geodesic bound %gs", i, rtt, p.Bound))
				break
			}
		}
	}
	for i, u := range o.UDP {
		if u.Delivered > u.Sent {
			out = append(out, fmt.Sprintf("udp flow %d: %d packets delivered of %d sent", i, u.Delivered, u.Sent))
		}
	}
	for _, p := range o.Pairs {
		// A pair that is never connected reports MinRTT = +Inf, which
		// passes.
		if p.MinRTT < p.GeodesicRTT {
			out = append(out, fmt.Sprintf("pair %d-%d: min RTT %gs below the geodesic bound %gs", p.Src, p.Dst, p.MinRTT, p.GeodesicRTT))
		}
	}
	return out
}

// digest hashes the outputs that must repeat exactly for one seed:
// delivered and drop counts, per-flow goodput, ping RTTs and pair
// statistics.
func (o *observations) digest() [sha256.Size]byte {
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	put(o.Delivered)
	put(o.Drops...)
	for _, g := range o.Goodput {
		put(math.Float64bits(g))
	}
	for _, p := range o.Pings {
		put(uint64(p.Sent), uint64(p.Replied))
		for _, r := range p.RTTs {
			put(math.Float64bits(r))
		}
	}
	for _, p := range o.Pairs {
		put(uint64(p.Src), uint64(p.Dst), math.Float64bits(p.MinRTT), math.Float64bits(p.MaxRTT),
			uint64(p.PathChanges), uint64(p.MinHops), uint64(p.MaxHops), uint64(p.DisconnectedSteps), uint64(p.Steps))
	}
	return sha256.Sum256(buf)
}

// checker holds the digest of the first checked repeat of a seed; every
// later repeat must reproduce it.
type checker struct {
	ref *[sha256.Size]byte
}

// check returns an error when the outputs violate an invariant or differ
// from the seed's first repeat.
func (c *checker) check(o *observations) error {
	if v := o.violations(); len(v) > 0 {
		return fmt.Errorf("invariant violated: %s", v[0])
	}
	d := o.digest()
	if c.ref == nil {
		c.ref = &d
		return nil
	}
	if d != *c.ref {
		return fmt.Errorf("outputs differ from the first repeat of this seed (digest %x, want %x)", d[:8], c.ref[:8])
	}
	return nil
}
