// Quickstart: maintain frequent itemsets over an evolving database.
//
// A small store receives a new block of sales transactions every night.
// DEMON keeps the set of frequent itemsets (and its negative border) up to
// date after every block, touching only the new data unless the model
// actually changed.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	demon "github.com/demon-mining/demon"
)

func main() {
	// Mine everything collected so far (the unrestricted window) at 10%
	// minimum support, counting new candidates through TID-lists (ECUT).
	miner, err := demon.NewItemsetMiner(demon.ItemsetMinerConfig{
		MinSupport: 0.10,
		Strategy:   demon.ECUT,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	for night := 1; night <= 5; night++ {
		rep, err := miner.AddBlock(salesBlock(rng, 400))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("night %d: detection %v, update %v, %d candidates counted, |L| = %d\n",
			rep.Block, rep.Detection.Round(1000), rep.Update.Round(1000),
			rep.CandidatesCounted, len(miner.FrequentItemsets()))
	}

	fmt.Println("\nfrequent itemsets after 5 nights:")
	for _, fi := range miner.FrequentItemsets() {
		if fi.Itemset.Len() >= 2 {
			fmt.Printf("  %v  support %.3f\n", fi.Itemset, fi.Support)
		}
	}

	// Business changed its mind: lower the threshold. Raising is free;
	// lowering reuses the BORDERS update phase.
	if _, err := miner.ChangeMinSupport(0.05); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter lowering κ to 0.05: %d frequent itemsets\n", len(miner.FrequentItemsets()))
}

// salesBlock fabricates one night of purchases: items 0-9 are staples, and
// the pairs {1,2} and {3,4} are bought together often.
func salesBlock(rng *rand.Rand, n int) [][]demon.Item {
	rows := make([][]demon.Item, n)
	for i := range rows {
		var row []demon.Item
		if rng.Float64() < 0.4 {
			row = append(row, 1, 2)
		}
		if rng.Float64() < 0.3 {
			row = append(row, 3, 4)
		}
		for len(row) < 3 {
			row = append(row, demon.Item(rng.Intn(10)))
		}
		rows[i] = row
	}
	return rows
}
