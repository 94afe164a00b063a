// Speedcontrol: the related-work tradeoff the paper discusses — spin-down
// (this paper's approach, via the joint method) versus dynamic rotation
// speed (DRPM, Gurumurthi et al.; the DR method). Spin-down needs idle
// intervals longer than the break-even time; speed scaling monetises even
// short idleness but caps its savings at the half-speed floor. Sweeping
// the request rate shows the crossover.
package main

import (
	"fmt"
	"log"

	"jointpm"
)

func main() {
	const (
		installed = 256 * jointpm.MB
		bank      = jointpm.MB
		pageSize  = 16 * jointpm.KB
		levels    = 4
	)
	spec := jointpm.DeriveDRPMLevels(jointpm.Barracuda(), 0, levels)
	fmt.Println("DRPM ladder derived from the Barracuda model:")
	for _, l := range spec.Levels {
		fmt.Printf("  %5d rpm: idle %6.2fW, %5.1f MB/s\n",
			l.RPM, float64(l.IdlePower), l.TransferRate/float64(jointpm.MB))
	}
	speedCap, err := jointpm.ParseMethod(fmt.Sprintf("DRFM-%v", installed))
	if err != nil {
		log.Fatal(err)
	}

	cases := []struct {
		name    string
		dataSet jointpm.Bytes
		rate    float64 // KB/s
	}{
		// A 64 MB data set trickle-feeds cold misses for hours: gaps stay
		// below the break-even time and spin-down has nothing to harvest.
		{"cold 32KB/s", 64 * jointpm.MB, 32},
		{"cold 128KB/s", 64 * jointpm.MB, 128},
		{"cold 512KB/s", 64 * jointpm.MB, 512},
		// An 8 MB data set is fully cached within ten minutes: the disk
		// then idles for hours and spin-down collects nearly all of it.
		{"warm 128KB/s", 8 * jointpm.MB, 128},
		{"idle 32KB/s", 4 * jointpm.MB, 32},
	}
	fmt.Printf("\n%-14s %16s %16s %18s\n", "scenario", "joint (spindown)", "DR (adaptive)", "always full speed")
	for _, c := range cases {
		tr, err := jointpm.GenerateWorkload(jointpm.WorkloadConfig{
			DataSetBytes: c.dataSet,
			PageSize:     pageSize,
			Rate:         c.rate * float64(jointpm.KB),
			Popularity:   0.1,
			Duration:     2 * jointpm.Hour,
			Seed:         5,
		})
		if err != nil {
			log.Fatal(err)
		}
		run := func(m jointpm.Method, mod func(*jointpm.SimConfig)) *jointpm.SimResult {
			cfg := jointpm.SimConfig{
				Trace:        tr,
				Method:       m,
				InstalledMem: installed,
				BankSize:     bank,
				Period:       5 * jointpm.Minute,
			}
			mod(&cfg)
			res, err := jointpm.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		joint := run(jointpm.JointMethod(installed), func(c *jointpm.SimConfig) {
			c.Joint = &jointpm.JointParams{DelayCap: 0.02}
		})
		adaptive := run(speedCap, func(c *jointpm.SimConfig) { c.SpeedLevels = levels })
		full := run(jointpm.AlwaysOnMethod(installed), func(*jointpm.SimConfig) {})

		fmt.Printf("%-14s %11.0f J %14.0f J %16.0f J   (latency %v / %v / %v)\n",
			c.name,
			float64(joint.DiskEnergy.Total()),
			float64(adaptive.DiskEnergy.Total()),
			float64(full.DiskEnergy.Total()),
			joint.MeanLatency(), adaptive.MeanLatency(), full.MeanLatency())
	}
	fmt.Println("\nexpect: DR sits near its half-speed floor in every scenario, because")
	fmt.Println("speed scaling monetises even seconds of idleness. Spin-down only closes")
	fmt.Println("the gap as the working set becomes fully cached and misses nearly")
	fmt.Println("vanish — with a 77.5 J / 10 s round trip, one cold miss every few")
	fmt.Println("seconds keeps the platters turning. That is precisely the regime the")
	fmt.Println("joint method attacks by growing the cache until the idleness is real.")
}
