package codec

import (
	"fedmp/internal/bandit"
	"fedmp/internal/zoo"
)

// This file is the wire format: one function per message (hello and shutdown,
// all strings, sit in payload itself), each naming every field once, in wire
// order. FrameBytes, WriteFrame and the Decoder all run
// these same functions, in the count, store and load directions of coder.go.
// A destination absent on load (a nil pointer, a nil interface) is created
// where the wire says there is one; the encoder has refused such an envelope
// before it gets that far.

// payload walks e's payload. checkKind has vouched for the payload pointer:
// the encoder's caller supplied it, the Decoder pointed it at its own.
func (c *coder) payload(e *Envelope) {
	switch e.Kind {
	case KindHello:
		c.str(&e.Hello.Name)
		c.str(&e.Hello.ID)
	case KindAssign:
		c.assign(e.Assign)
	case KindResult:
		c.result(e.Result)
	case KindShutdown:
		c.str(&e.Shutdown.Reason)
	case KindSnapshot, KindRoundClose:
		c.snapshot(e.Snapshot)
	case KindPing, KindPong:
		// No payload.
	}
}

func (c *coder) assign(a *Assign) {
	c.int(&a.Round)
	c.desc(&a.Desc)
	c.tensors(&a.Weights, c.quantize)
	c.int(&a.Iters)
	c.f32(&a.ProxMu)
	c.f64(&a.UploadK)
	c.f64(&a.Ratio)
	if c.ver >= 2 {
		c.flag(&a.Quantize, "assign quantize")
	}
}

func (c *coder) result(r *Result) {
	c.int(&r.Round)
	tag := resultNone
	switch {
	case r.Delta != nil && r.Update != nil:
		c.fail("result carries both delta and update")
		return
	case r.Delta != nil:
		tag = resultDelta
	case r.Update != nil:
		tag = resultUpdate
	}
	c.byte(&tag)
	switch tag {
	case resultNone:
	case resultDelta:
		c.tensors(&r.Delta, c.quantize)
	case resultUpdate:
		c.tensors(&r.Update, c.quantize)
	default:
		c.fail("unknown result payload tag %d", tag)
	}
	c.f64(&r.TrainLoss)
	c.f64(&r.CompSeconds)
}

// desc is a model description: a tag byte, then nothing, a *zoo.Spec or a
// zoo.LMConfig.
func (c *coder) desc(d *any) {
	tag := descNil
	switch v := (*d).(type) {
	case nil:
	case *zoo.Spec:
		if v == nil {
			c.fail("nil *zoo.Spec description")
			return
		}
		tag = descSpec
	case zoo.LMConfig:
		tag = descLM
	default:
		c.fail("unsupported description type %T", v)
		return
	}
	c.byte(&tag)
	switch tag {
	case descNil:
	case descSpec:
		s, _ := (*d).(*zoo.Spec)
		if s == nil {
			c.d.spec = zoo.Spec{}
			s = &c.d.spec
			*d = s
		}
		c.str(&s.Name)
		c.int(&s.InC)
		c.int(&s.InH)
		c.int(&s.InW)
		c.int(&s.Classes)
		c.layers(&s.Layers, 0)
	case descLM:
		lm, have := (*d).(zoo.LMConfig)
		c.int(&lm.Vocab)
		c.int(&lm.Embed)
		c.int(&lm.Hidden)
		c.int(&lm.SeqLen)
		if !have {
			*d = lm
		}
	default:
		c.fail("unknown description tag %d", tag)
	}
}

// layers is a layer list; depth tracks residual nesting (zoo.Walk forbids
// residuals inside residuals, so one level of Body is the limit). A layer
// costs at least 16 bytes.
func (c *coder) layers(ls *[]zoo.LayerSpec, depth int) {
	for i := range list(c, ls, maxLayers, 16, "layer", (*Decoder).layerList) {
		if depth > 1 {
			c.fail("residual blocks nest deeper than the zoo allows")
			return
		}
		l := &(*ls)[i]
		c.int((*int)(&l.Kind))
		c.str(&l.Name)
		c.int(&l.Out)
		c.int(&l.K)
		c.int(&l.Stride)
		c.int(&l.Pad)
		c.int(&l.Window)
		c.f64(&l.Rate)
		c.layers(&l.Body, depth+1)
	}
}

// f64s is a float64 list.
func (c *coder) f64s(vs *[]float64, limit int, what string) {
	for i := range list(c, vs, limit, 8, what, nil) {
		c.f64(&(*vs)[i])
	}
}

// snapshot is the durability payload shared by KindSnapshot and
// KindRoundClose. Its tensors never quantize: a checkpoint must restore the
// exact global model. A worker entry costs at least 12 bytes.
func (c *coder) snapshot(s *Snapshot) {
	c.int(&s.Round)
	c.tensors(&s.Global, false)
	c.f64(&s.PrevLoss)
	c.f64(&s.RoundSum)
	c.f64s(&s.PrevTimes, maxWorkers, "worker-time")
	c.f64s(&s.PrevComm, maxWorkers, "worker-time")
	for i := range list(c, &s.Workers, maxWorkers, 12, "worker", nil) {
		w := &s.Workers[i]
		c.int(&w.Slot)
		if w.Slot < 0 {
			c.fail("negative worker slot %d", w.Slot)
			return
		}
		c.str(&w.ID)
		c.str(&w.Name)
		c.f64(&w.Ratio)
		has := w.Bandit != nil
		c.flag(&has, "bandit presence")
		if has {
			if w.Bandit == nil {
				w.Bandit = &bandit.State{}
			}
			c.bandit(w.Bandit)
		}
	}
}

// bandit is one policy state. Its lists share one cap; a region costs 16
// bytes, a pull at least 17, a count at least 1.
func (c *coder) bandit(s *bandit.State) {
	c.str(&s.Kind)
	c.int(&s.Round)
	for i := range list(c, &s.Regions, maxBanditItems, 16, "bandit region", nil) {
		c.f64(&s.Regions[i].Lo)
		c.f64(&s.Regions[i].Hi)
	}
	for i := range list(c, &s.Pulls, maxBanditItems, 17, "bandit pull", nil) {
		c.int(&s.Pulls[i].Round)
		c.f64(&s.Pulls[i].Ratio)
		c.f64(&s.Pulls[i].Reward)
	}
	c.f64s(&s.Arms, maxBanditItems, "bandit arm")
	for i := range list(c, &s.Counts, maxBanditItems, 1, "bandit count", nil) {
		c.int(&s.Counts[i])
	}
	c.f64s(&s.Sums, maxBanditItems, "bandit sum")
	c.f64(&s.Eps)
	c.f64(&s.Ratio)
}
