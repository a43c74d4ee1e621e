// Package codec implements the transport's hand-rolled wire format: a
// length-prefixed binary frame per message, replacing encoding/gob on the
// parameter-server/worker link.
//
// Why not gob: every assignment and result carries the model as
// []*tensor.Tensor, and gob walks those values element by element through
// reflection — the encode cost scales with parameter count at tens of
// nanoseconds per float. This codec writes tensor data as raw little-endian
// float32 slabs (one memmove on little-endian machines), draws its scratch
// buffers from a size-classed sync.Pool mirroring tensor.Pool, and encodes
// mostly-zero tensors (pruned sub-models, top-K updates) in a sparse mode
// that ships only the surviving values plus a one-bit-per-element mask. The
// result is that wire bytes track the *pruned* model size — the property the
// paper's communication results (Figs. 5 and 9) depend on — and that the
// simulation can price communication with the exact same size model the TCP
// runtime measures (FrameBytes is byte-exact against WriteFrame).
//
// Version 2 adds two lossy int8 tensor modes (§III-C's "fewer bits per
// parameter", pushed onto the wire): a quantized slab — one float32 scale
// plus one signed byte per element — and its sparse composition with the
// presence bitmask. They are opt-in per envelope (Envelope.Quantize) and
// chosen per tensor only when strictly byte-cheaper than the best float32
// mode; durability snapshots never use them, so checkpoints stay lossless.
// Version-1 frames still decode.
//
// Frame layout (all multi-byte integers little-endian):
//
//	offset size field
//	0      2    magic "FM"
//	2      1    format version (1 or 2)
//	3      1    message kind
//	4      4    payload length N
//	8      N    payload (kind-specific, see layout.go)
//
// Each message's layout is written once (layout.go) as a walk over its
// fields; FrameBytes runs the walk counting, WriteFrame storing, the Decoder
// loading (coder.go). Decoding is defensive: every count on the wire passes
// one gate, (*coder).length, which holds it to a cap and to the bytes
// actually left in the frame before anything is allocated from it, and any
// malformed input yields an error — never a panic. TestHostileLengths and
// FuzzReadFrame hold every decode to an allocation bound.
package codec

import (
	"errors"
	"fmt"

	"fedmp/internal/bandit"
	"fedmp/internal/tensor"
)

// Kind discriminates wire messages. The values are pinned — they are the
// on-the-wire protocol, shared by every PS and worker build.
type Kind byte

// Message kinds. KindSnapshot and KindRoundClose never cross the wire: they
// are the on-disk record kinds of the PS durability layer
// (internal/transport/checkpoint) — a full-state checkpoint file and the
// write-ahead log's per-round record. Giving them distinct kinds in the same
// frame format means a WAL fed to the snapshot reader (or vice versa) is
// rejected by the header, not misparsed.
const (
	KindHello Kind = iota + 1
	KindAssign
	KindResult
	KindShutdown
	KindPing
	KindPong
	KindSnapshot
	KindRoundClose

	kindMax = KindRoundClose
)

// Frame geometry and decode limits.
const (
	magic0, magic1 = 'F', 'M'

	// version is what the encoder stamps on every frame; minVersion is the
	// oldest frame format the decoder still accepts. Version 1 lacks the
	// int8 tensor modes and the Assign.Quantize field — a v1 assign payload
	// simply ends after Ratio, and decode leaves Quantize false.
	version    = 2
	minVersion = 1

	// HeaderLen is the fixed frame-header size in bytes.
	HeaderLen = 8

	// MaxFrame bounds one frame's payload; a peer announcing more is
	// malformed (the scaled model zoo tops out well under a megabyte).
	MaxFrame = 64 << 20

	// maxRank, maxElems, maxTensors and maxLayers cap what a frame may hold
	// — the encoder refuses what the decoder would — so a corrupt or hostile
	// length field cannot amplify a small frame into an enormous allocation.
	maxRank    = 32
	maxElems   = 1 << 24
	maxTensors = 1 << 16
	maxLayers  = 1 << 12

	// maxWorkers and maxBanditItems bound the durability payloads the same
	// way: worker-table entries, bandit regions/pulls/arms.
	maxWorkers     = 1 << 16
	maxBanditItems = 1 << 20
)

// Envelope is the single wire frame; exactly one payload field matching
// Kind is set (Ping/Pong carry no payload). Snapshot serves both
// KindSnapshot and KindRoundClose — the two durability records share one
// payload shape and differ only in where they live (checkpoint file vs WAL).
type Envelope struct {
	Kind     Kind
	Hello    *Hello
	Assign   *Assign
	Result   *Result
	Shutdown *Shutdown
	Snapshot *Snapshot

	// Quantize is an encoder directive, not a wire field: when set, assign
	// and result tensors may ship in the lossy int8 modes wherever that is
	// strictly byte-cheaper (FrameBytes prices the same choice, so the size
	// model stays byte-exact). It has no effect on durability payloads —
	// snapshots always round-trip bit-exactly — and decoding never sets it;
	// the on-the-wire instruction to a worker is Assign.Quantize.
	Quantize bool
}

// Hello introduces a worker to the server.
type Hello struct {
	// Name is a human-readable worker label.
	Name string
	// ID is a stable worker identity: a reconnecting worker presenting an
	// ID the server has seen before re-enters its old slot mid-training
	// instead of being treated as a stranger. Empty IDs never match.
	ID string
}

// Assign is a per-round work order. It deliberately omits the R2SP residual
// and pruning plan — those are server-side bookkeeping the worker never
// needs (and the residual is as large as the full model).
type Assign struct {
	Round int
	// Desc is the model description: nil, *zoo.Spec or zoo.LMConfig.
	Desc    any
	Weights []*tensor.Tensor
	Iters   int
	ProxMu  float32
	UploadK float64
	Ratio   float64
	// Quantize tells the worker to quantize its result tensors on the wire
	// (and to absorb the quantization error locally, e.g. into the FlexCom
	// leftover). New in format version 2; decodes as false from v1 frames.
	Quantize bool
}

// Result is a worker's round result. At most one of Delta and Update is
// set: Delta is the dense trained-minus-assigned difference (the server
// reconstructs the new weights by adding it back, so the upload never
// repeats the weights the server just sent), Update is the FlexCom top-K
// sparse update in global shape.
type Result struct {
	Round     int
	Delta     []*tensor.Tensor
	Update    []*tensor.Tensor
	TrainLoss float64
	// CompSeconds is the worker's own stopwatch over its whole step:
	// training and building the upload (top-K selection is worker compute).
	CompSeconds float64
}

// Shutdown ends a worker's session.
type Shutdown struct {
	Reason string
}

// Snapshot is the parameter server's complete durable state at the close of
// a round: everything a restarted PS needs to resume from round Round+1
// without re-running completed work. It is the payload of both durability
// record kinds; the tensors round-trip bit-exactly (NaN payloads, negative
// zero and infinities included) through the same slab/sparse encoding the
// wire uses.
type Snapshot struct {
	// Round is the last completed round.
	Round int
	// Global is the aggregated global model after Round.
	Global []*tensor.Tensor
	// PrevLoss is the mean local training loss of Round (NaN before the
	// first aggregation — the encoding preserves it).
	PrevLoss float64
	// RoundSum is the accumulated wall-clock round time, feeding the
	// MeanRoundTime the strategies see.
	RoundSum float64
	// PrevTimes and PrevComm are each worker's most recent total and
	// communication times (indexed by slot).
	PrevTimes []float64
	PrevComm  []float64
	// Workers is the identity/ratio table: one entry per occupied slot.
	Workers []WorkerState
}

// WorkerState is one worker's durable identity and per-worker server state.
type WorkerState struct {
	// Slot is the registry slot the worker occupies; ID its stable identity
	// (empty for workers that never presented one — they cannot rejoin
	// across a restart); Name the human-readable label.
	Slot int
	ID   string
	Name string
	// Ratio is the last pruning ratio assigned to this worker.
	Ratio float64
	// Bandit is the worker's pruning-ratio policy state (nil for strategies
	// without per-worker bandits).
	Bandit *bandit.State
}

// errTruncated reports a payload shorter than its own length fields claim.
var errTruncated = errors.New("codec: truncated payload")

// Result tag bytes: which tensor list follows.
const (
	resultNone byte = iota
	resultDelta
	resultUpdate
)

// Desc tag bytes.
const (
	descNil byte = iota
	descSpec
	descLM
)

// checkKind validates that e's Kind has its matching payload pointer, which
// is all the walk over the payload takes on trust.
func checkKind(e *Envelope) error {
	switch e.Kind {
	case KindHello:
		if e.Hello == nil {
			return fmt.Errorf("codec: hello envelope without payload")
		}
	case KindAssign:
		if e.Assign == nil {
			return fmt.Errorf("codec: assign envelope without payload")
		}
	case KindResult:
		if e.Result == nil {
			return fmt.Errorf("codec: result envelope without payload")
		}
	case KindShutdown:
		if e.Shutdown == nil {
			return fmt.Errorf("codec: shutdown envelope without payload")
		}
	case KindPing, KindPong:
		// No payload.
	case KindSnapshot, KindRoundClose:
		if e.Snapshot == nil {
			return fmt.Errorf("codec: durability envelope without payload")
		}
	default:
		return fmt.Errorf("codec: unknown message kind %d", e.Kind)
	}
	return nil
}
