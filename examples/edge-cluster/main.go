// Edge-cluster operations (§7.1 at fleet scale): three cell-site
// machines run subscriber firewalls under one controller. Subscribers
// attach in waves, follow their users between cells via live
// migration, and leave; mid-run one cell site dies, and the controller
// detects it from heartbeat silence and re-places its firewalls on the
// surviving cells.
package main

import (
	"fmt"
	"log"
	"time"

	"lightvm"
)

func main() {
	fleet, err := lightvm.NewCluster(
		lightvm.ClusterConfig{Machine: lightvm.Xeon14, Seed: 1},
		[]lightvm.HostPool{{
			Name: "cells", Mode: lightvm.ModeChaosNoXS, Hosts: 3,
			VMs: 30, Image: lightvm.ClickOSFirewall(),
		}})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := fleet.RunChurn(lightvm.ChurnSpec{
		Waves:          3,
		WavePeriod:     2 * time.Second,
		MigratePerWave: 4, // handovers: subscribers driving between cells
		DepartPerWave:  2, // subscribers leaving the network
		FailAt:         []time.Duration{2500 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}

	p := rep.Pools[0]
	fmt.Printf("%d subscriber firewalls running on %d cell sites (%d created, create p50 %.1f ms)\n",
		p.Placed, p.Hosts, p.Created, p.CreateMS.Percentile(50))
	fmt.Printf("%d handover migrations (p50 %.1f ms)\n", p.Migrations, p.MigrateMS.Percentile(50))
	fmt.Printf("%d cell site died: %d firewalls failed over (unavailable p50 %.0f ms)\n",
		rep.HostsFailed, rep.Failovers, rep.FailoverMS.Percentile(50))
	fmt.Printf("virtual makespan %.1f s; %d double-starts, %d fsck violations\n",
		rep.MakespanMS/1000, rep.DoubleStarts, rep.FsckViolated)
}
