// Package fedmp is a from-scratch Go implementation of FedMP — federated
// learning through adaptive model pruning in heterogeneous edge computing
// (Jiang et al., ICDE 2022) — together with every substrate the system
// needs: a CPU neural-network training engine, structured model pruning
// with R2SP residual recovery, the E-UCB multi-armed-bandit pruning-ratio
// controller, a simulated heterogeneous edge cluster, the paper's four
// baselines, a real TCP parameter-server runtime, and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// This package is the façade: it re-exports the simulation API
// (Run/Config/Result), family constructors for the paper's five models, the
// experiment harness and the distributed runtime. The implementation lives
// under internal/; see DESIGN.md for the system inventory.
//
// Quick start:
//
//	fam, _ := fedmp.NewImageFamily(fedmp.ModelCNN)
//	res, _ := fedmp.Run(fam, fedmp.Config{Rounds: 30})
//	fmt.Printf("accuracy %.2f after %.0f virtual seconds\n", res.FinalAcc, res.Time)
package fedmp

import (
	"fmt"
	"io"

	"fedmp/internal/cluster"
	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/experiment"
	"fedmp/internal/transport"
	"fedmp/internal/zoo"
)

// Core simulation types, re-exported.
type (
	// Config parameterises one federated run; zero fields take the
	// paper's defaults.
	Config = core.Config
	// Result is a completed run's trajectory and summary.
	Result = core.Result
	// Point is one evaluation of the global model.
	Point = core.Point
	// Family abstracts a model family (image classifier or LSTM LM).
	Family = core.Family
	// NonIID selects a data-partitioning scheme.
	NonIID = core.NonIID
	// StrategyID names a federated method.
	StrategyID = core.StrategyID
	// SyncScheme selects R2SP or BSP synchronization.
	SyncScheme = core.SyncScheme
	// FaultConfig injects simulated cluster failures (crashes, transient
	// stragglers, link blackouts) into a run via Config.Faults.
	FaultConfig = cluster.FaultConfig
	// State is a synchronous run's resumable state (Result.State, from Run
	// and Serve alike — it is the record the parameter server checkpoints);
	// feed it to RunFrom to continue a checkpointed run.
	State = core.State
	// Population selects population mode via Config.Population: devices
	// derive lazily from (seed, id) and each round trains a sampled cohort,
	// so populations of millions cost O(cohort) memory.
	Population = cluster.Population
	// Diurnal is a population's on/off availability trace.
	Diurnal = cluster.Diurnal
	// Outage is a population's correlated regional-outage model.
	Outage = cluster.Outage
	// StreamStats carries the constant-memory aggregates of a run with
	// Config.StreamMetrics set (Result.Stream).
	StreamStats = core.StreamStats
)

// Strategies of the paper's evaluation.
const (
	StrategyFedMP   = core.StrategyFedMP
	StrategySynFL   = core.StrategySynFL
	StrategyUPFL    = core.StrategyUPFL
	StrategyFedProx = core.StrategyFedProx
	StrategyFlexCom = core.StrategyFlexCom
	StrategyFixed   = core.StrategyFixed
)

// Synchronization schemes (§III-C).
const (
	SyncR2SP = core.SyncR2SP
	SyncBSP  = core.SyncBSP
)

// Model identifiers for NewImageFamily.
const (
	ModelCNN     = string(zoo.ModelCNN)
	ModelAlexNet = string(zoo.ModelAlexNet)
	ModelVGG     = string(zoo.ModelVGG)
	ModelResNet  = string(zoo.ModelResNet)
)

// ImageModels lists the four image classifiers in paper order.
var ImageModels = []string{ModelCNN, ModelAlexNet, ModelVGG, ModelResNet}

// Run executes one federated simulation: real local SGD on synthetic data,
// virtual completion times from the heterogeneous cluster model.
func Run(fam Family, cfg Config) (*Result, error) { return core.Run(fam, cfg) }

// RunFrom resumes a synchronous simulation from a checkpointed State (taken
// from an earlier Result.State): round numbering and the virtual clock
// continue, and no completed round is re-run.
func RunFrom(fam Family, cfg Config, st *State) (*Result, error) {
	return core.RunFrom(fam, cfg, st)
}

// NewImageFamily constructs the family for one of the paper's image
// models ("cnn", "alexnet", "vgg", "resnet"), generating its paired
// synthetic dataset.
func NewImageFamily(model string) (Family, error) {
	return core.NewImageFamily(zoo.ModelID(model))
}

// NewLanguageModelFamily constructs the §VI two-layer LSTM language-model
// family over the synthetic Markov corpus.
func NewLanguageModelFamily() Family {
	return core.NewLMFamily(zoo.DefaultLMConfig(), data.DefaultCorpusConfig())
}

// Experiment harness, re-exported.
type (
	// ExperimentOptions configures the benchmark harness.
	ExperimentOptions = experiment.Options
	// Report is one regenerated paper artefact.
	Report = experiment.Report
	// Lab is a harness instance with a shared result cache.
	Lab = experiment.Lab
)

// ExperimentIDs lists every reproducible paper artefact in order.
func ExperimentIDs() []string { return experiment.IDs() }

// RunExperiment regenerates one paper artefact ("table2" … "fig12" …
// "table4").
func RunExperiment(id string, opts ExperimentOptions) (*Report, error) {
	return experiment.Run(id, opts)
}

// NewLab constructs an experiment harness whose result cache is shared
// across artefacts (Table III and Fig. 6 reuse the same simulations).
func NewLab(opts ExperimentOptions) *Lab { return experiment.NewLab(opts) }

// WriteReport renders a report as aligned text tables.
func WriteReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "== %s: %s ==\n\n", rep.ID, rep.Title)
	for _, t := range rep.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if len(rep.Notes) > 0 {
		fmt.Fprintln(w)
	}
}

// Distributed runtime, re-exported.
type (
	// ServerConfig parameterises the TCP parameter server.
	ServerConfig = transport.ServerConfig
	// WorkerConfig parameterises one TCP worker.
	WorkerConfig = transport.WorkerConfig
)

// ErrAborted is returned by Serve when its Abort channel fires mid-run;
// rounds completed before the abort stay durable when ServerConfig's
// CheckpointDir is set.
var ErrAborted = transport.ErrAborted

// Serve runs a real parameter server over TCP (blocking until training
// finishes). With ServerConfig.CheckpointDir set, it checkpoints every
// completed round and resumes from the last durable round after a restart.
func Serve(fam Family, cfg ServerConfig) (*Result, error) { return transport.Serve(fam, cfg) }

// RunWorker connects a worker to a parameter server and serves training
// rounds until shutdown. src supplies the worker's local data; build one
// with WorkerSource.
func RunWorker(fam Family, src core.Source, cfg WorkerConfig) error {
	return transport.RunWorker(fam, src, cfg)
}

// WorkerSource builds the local data source for worker index i of n, using
// the family's own partitioner.
func WorkerSource(fam Family, i, n, batchSize int, seed int64) (core.Source, error) {
	if i < 0 || i >= n {
		return nil, fmt.Errorf("fedmp: worker index %d of %d", i, n)
	}
	srcs, err := fam.Sources(n, NonIID{}, batchSize, seed)
	if err != nil {
		return nil, err
	}
	return srcs[i], nil
}
