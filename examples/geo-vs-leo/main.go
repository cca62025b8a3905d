// geo-vs-leo contrasts the latency regimes the paper's introduction sets
// against each other: a legacy geostationary constellation (the HughesNet /
// Viasat model, ~36,000 km up, hundreds of milliseconds) versus an LEO
// mega-constellation (Kuiper K1 at 630 km) for the same city pairs.
//
//	go run ./examples/geo-vs-leo
package main

import (
	"fmt"
	"log"
	"math"

	"hypatia"
)

func main() {
	gss := hypatia.Top100Cities()

	leo, err := hypatia.GenerateConstellation(hypatia.Kuiper())
	if err != nil {
		log.Fatal(err)
	}
	geoCfg := hypatia.ConstellationConfig{
		Name:       "GEO",
		Shells:     []hypatia.Shell{hypatia.GEORing("G1", 8)},
		MinElevDeg: 10,
	}
	geo, err := hypatia.GenerateConstellation(geoCfg)
	if err != nil {
		log.Fatal(err)
	}

	leoTopo, err := hypatia.NewTopology(leo, gss, hypatia.GSLFree)
	if err != nil {
		log.Fatal(err)
	}
	geoTopo, err := hypatia.NewTopology(geo, gss, hypatia.GSLFree)
	if err != nil {
		log.Fatal(err)
	}

	pairs := [][2]string{
		{"London", "New York"},
		{"Istanbul", "Nairobi"},
		{"Manila", "Dalian"},
	}
	fmt.Printf("%-22s %14s %14s %12s\n", "pair", "LEO RTT", "GEO RTT", "GEO/LEO")
	for _, p := range pairs {
		src, dst := indexOf(gss, p[0]), indexOf(gss, p[1])
		leoRTT := meanRTT(leoTopo, src, dst)
		geoRTT := meanRTT(geoTopo, src, dst)
		fmt.Printf("%-22s %11.1f ms %11.1f ms %11.1fx\n",
			p[0]+" - "+p[1], leoRTT*1e3, geoRTT*1e3, geoRTT/leoRTT)
	}
	fmt.Println()
	fmt.Println("GEO satellites are stationary but 36,000 km up: every round trip")
	fmt.Println("pays hundreds of milliseconds. LEO constellations cut that by an")
	fmt.Println("order of magnitude — the reason the new systems operate low, and")
	fmt.Println("the source of all the dynamics this framework simulates.")
}

func indexOf(gss []hypatia.GS, name string) int {
	g, err := hypatia.GSByName(gss, name)
	if err != nil {
		log.Fatal(err)
	}
	for i, cand := range gss {
		if cand.ID == g.ID {
			return i
		}
	}
	log.Fatalf("station %q not indexed", name)
	return -1
}

func meanRTT(topo *hypatia.Topology, src, dst int) float64 {
	rtts, err := hypatia.RTTSeries(topo, src, dst, 60, 10)
	if err != nil {
		log.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, rtt := range rtts {
		if !math.IsInf(rtt, 1) {
			sum += rtt
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
