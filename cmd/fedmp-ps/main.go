// Command fedmp-ps runs a real FedMP parameter server over TCP. Workers
// (cmd/fedmp-worker) connect to it, and training proceeds with the selected
// strategy using wall-clock completion times.
//
// Usage:
//
//	fedmp-ps -addr :7070 -workers 3 -rounds 20 -model cnn -strategy fedmp
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"fedmp"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	workers := flag.Int("workers", 2, "workers to wait for")
	rounds := flag.Int("rounds", 20, "global rounds")
	model := flag.String("model", "cnn", "cnn | alexnet | vgg | resnet | lstm")
	strategy := flag.String("strategy", "fedmp", "fedmp | synfl | upfl | fedprox | flexcom")
	timeout := flag.Duration("round-timeout", 2*time.Minute, "round collection deadline")
	quorum := flag.Int("quorum", 0, "results that close a round early (0 = wait for all workers)")
	grace := flag.Duration("grace", 0, "extra wait for stragglers once the quorum is in (0 = timeout/4)")
	helloTimeout := flag.Duration("hello-timeout", 10*time.Second, "per-connection hello deadline")
	acceptTimeout := flag.Duration("accept-timeout", 2*time.Minute, "bound on the initial wait for workers")
	seed := flag.Int64("seed", 1, "random seed")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for the durable per-round checkpoint (empty = no durability)")
	quantizeWire := flag.Bool("quantize-wire", false, "ship assignment and result tensors int8-quantized when byte-cheaper")
	flag.Parse()

	var fam fedmp.Family
	var err error
	if *model == "lstm" {
		fam = fedmp.NewLanguageModelFamily()
	} else {
		fam, err = fedmp.NewImageFamily(*model)
		if err != nil {
			log.Fatal(err)
		}
	}
	res, err := fedmp.Serve(fam, fedmp.ServerConfig{
		Addr:           *addr,
		Workers:        *workers,
		Rounds:         *rounds,
		RoundTimeout:   *timeout,
		Quorum:         *quorum,
		StragglerGrace: *grace,
		HelloTimeout:   *helloTimeout,
		AcceptTimeout:  *acceptTimeout,
		CheckpointDir:  *checkpointDir,
		Core: fedmp.Config{
			Strategy:     fedmp.StrategyID(*strategy),
			Rounds:       *rounds,
			Seed:         *seed,
			QuantizeWire: *quantizeWire,
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished %d rounds in %.1fs wall clock; final loss %.4f, accuracy %.3f\n",
		res.Rounds, res.Time, res.FinalLoss, res.FinalAcc)
}
