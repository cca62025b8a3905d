// bentpipe contrasts ISL connectivity with "bent-pipe" connectivity over
// ground-station relays for Paris-Moscow (the paper's Appendix A): without
// laser inter-satellite links, long-distance traffic bounces down to relay
// ground stations and back up, adding RTT.
//
//	go run ./examples/bentpipe
package main

import (
	"fmt"
	"log"
	"math"

	"hypatia"
)

func main() {
	paris := hypatia.LLADeg(48.8566, 2.3522, 0)
	moscow := hypatia.LLADeg(55.7558, 37.6173, 0)

	endpoints := []hypatia.GS{
		{ID: 0, Name: "Paris", Position: paris},
		{ID: 1, Name: "Moscow", Position: moscow},
	}
	relays, err := hypatia.RelayGrid(paris, moscow, 5, 8, 3, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Paris -> Moscow over Kuiper K1, computed RTT at t = 0..60 s:")
	for _, mode := range []struct {
		name string
		cfg  hypatia.ConstellationConfig
		gss  []hypatia.GS
	}{
		{"ISLs (+Grid)", hypatia.Kuiper(), endpoints},
		{"bent-pipe via GS relays", bentPipe(), append(append([]hypatia.GS{}, endpoints...), relays...)},
	} {
		c, err := hypatia.GenerateConstellation(mode.cfg)
		if err != nil {
			log.Fatal(err)
		}
		topo, err := hypatia.NewTopology(c, mode.gss, hypatia.GSLFree)
		if err != nil {
			log.Fatal(err)
		}
		rtts, err := hypatia.RTTSeries(topo, 0, 1, 60, 1)
		if err != nil {
			log.Fatal(err)
		}
		min, max, sum, n := math.Inf(1), 0.0, 0.0, 0
		for _, rtt := range rtts {
			if math.IsInf(rtt, 1) {
				continue
			}
			min = math.Min(min, rtt)
			max = math.Max(max, rtt)
			sum += rtt
			n++
		}
		if n == 0 {
			fmt.Printf("  %-24s never connected\n", mode.name)
			continue
		}
		fmt.Printf("  %-24s mean %5.1f ms  (min %5.1f, max %5.1f, %d/61 connected)\n",
			mode.name, sum/float64(n)*1e3, min*1e3, max*1e3, n)
	}
	fmt.Println()
	fmt.Println("Bent-pipe paths are a few milliseconds longer: every long-distance")
	fmt.Println("hop must detour down to a relay ground station and back up.")
}

func bentPipe() hypatia.ConstellationConfig {
	cfg := hypatia.Kuiper()
	cfg.ISLMode = hypatia.ISLNone
	return cfg
}
