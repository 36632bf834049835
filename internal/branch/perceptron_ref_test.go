package branch

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// refPerceptron is the branchy perceptron the branch-free one must match:
// its dot product adds or subtracts each weight by the history bit, and
// its training steps and saturates each weight with comparisons.
type refPerceptron struct{ p *Perceptron }

func (r refPerceptron) output(pc uint64) int32 {
	p := r.p
	w := p.weights[p.index(pc)]
	y := int32(w[0])
	h := p.history
	for i := 1; i <= p.hlen; i++ {
		if h&1 == 1 {
			y += int32(w[i])
		} else {
			y -= int32(w[i])
		}
		h >>= 1
	}
	return y
}

func (r refPerceptron) update(pc uint64, taken bool) {
	p := r.p
	y := r.output(pc)
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if (y >= 0) != taken || mag <= p.thresh {
		w := p.weights[p.index(pc)]
		t := int16(-1)
		if taken {
			t = 1
		}
		w[0] = refSat(w[0] + t)
		h := p.history
		for i := 1; i <= p.hlen; i++ {
			if (h&1 == 1) == taken {
				w[i] = refSat(w[i] + 1)
			} else {
				w[i] = refSat(w[i] - 1)
			}
			h >>= 1
		}
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
}

func refSat(v int16) int16 {
	if v > weightLimit {
		return weightLimit
	}
	if v < -weightLimit {
		return -weightLimit
	}
	return v
}

// TestPerceptronMatchesReference steps the perceptron and the branchy
// reference through the same random branches, over several table and
// history sizes, and requires the same prediction and the same weight
// table and history after every step. Both start from the same random
// weights, half of them at the saturation limits, so training pushes
// weights against the limits from the first step.
func TestPerceptronMatchesReference(t *testing.T) {
	for _, size := range []struct{ table, history int }{{1, 1}, {2, 4}, {16, 7}, {256, 16}, {64, 63}} {
		got := NewPerceptron(size.table, size.history)
		ref := refPerceptron{NewPerceptron(size.table, size.history)}
		r := rng.New(uint64(size.table*64 + size.history))
		for i, w := range got.weights {
			for j := range w {
				switch r.Intn(4) {
				case 0:
					w[j] = weightLimit
				case 1:
					w[j] = -weightLimit
				default:
					w[j] = int16(r.Intn(2*weightLimit+1) - weightLimit)
				}
			}
			copy(ref.p.weights[i], w)
		}
		for step := 0; step < 20000; step++ {
			pc := uint64(r.Intn(4*size.table+3)) * 4
			taken := r.Bool(0.7)
			if g, w := got.Predict(pc), ref.output(pc) >= 0; g != w {
				t.Fatalf("%d/%d step %d pc %#x: predicted %v, reference %v", size.table, size.history, step, pc, g, w)
			}
			got.Update(pc, taken)
			ref.update(pc, taken)
			if got.history != ref.p.history || !slices.EqualFunc(got.weights, ref.p.weights, slices.Equal[[]int16]) {
				t.Fatalf("%d/%d step %d pc %#x: weights or history diverged from the reference", size.table, size.history, step, pc)
			}
		}
	}
}
