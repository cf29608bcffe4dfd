// Streaming: ParMAC's §4.3 extension — machines and data can join and leave
// the ring between iterations while training continues.
package main

import (
	"fmt"

	parmac "repro"
	"repro/internal/binauto"
	"repro/internal/dataset"
)

func main() {
	// The full corpus arrives over time; only the first 3000 points exist
	// when training starts, spread over 3 machines.
	ds, _ := parmac.SyntheticBenchmark(5000, 1, 32, 12, 3)
	shards := dataset.ShardIndices(3000, 3, nil)
	prob := binauto.NewParMACProblem(ds, shards, binauto.ParMACConfig{
		L: 12, Mu0: 1e-4, MuFactor: 2, Seed: 3,
	})
	eng := parmac.New(prob, parmac.Config{P: 3, Epochs: 1, Seed: 3, MaxMachines: 5})
	defer eng.Shutdown()

	report := func(tag string, r parmac.IterationResult) {
		_, eba := prob.Stats()
		fmt.Printf("%-28s iter=%d machines=%d codesChanged=%d E_BA=%.1f\n",
			tag, r.Iter, r.AliveMachines, r.ZChanged, eba)
	}

	for i := 0; i < 3; i++ {
		report("warm-up", eng.Iterate())
	}

	// 2000 new points arrive: bring up a new machine holding them. Its codes
	// are initialised by applying the current model ("applying the nested
	// model to x", §4.3).
	extra := make([]int, 2000)
	for i := range extra {
		extra[i] = 3000 + i
	}
	shard := prob.AddShard(ds, extra)
	rank := eng.AddMachine(shard)
	fmt.Printf("\n+ streamed in 2000 points on new machine rank %d\n\n", rank)

	for i := 0; i < 3; i++ {
		report("after machine added", eng.Iterate())
	}

	// Machine 1 is returned to the cluster; its data stop being visited.
	eng.Retire(1)
	fmt.Printf("\n- retired machine 1 (ring reconnected around it)\n\n")

	for i := 0; i < 2; i++ {
		report("after machine retired", eng.Iterate())
	}
	fmt.Printf("\nfinal codes cover %d points\n", prob.GatherCodes().N)
}
