package main

import (
	"fmt"
	"runtime"
	"time"

	"soapbinq/internal/bufpool"
	"soapbinq/internal/core"
	"soapbinq/internal/pbio"
	"soapbinq/internal/soap"
	"soapbinq/internal/xmlenc"
)

// opCost is one isolated codec operation on one message.
type opCost struct {
	ns, bytes, allocs float64 // per operation
}

func (a opCost) plus(b opCost) opCost {
	return opCost{a.ns + b.ns, a.bytes + b.bytes, a.allocs + b.allocs}
}

func (a opCost) times(f float64) opCost { return opCost{a.ns * f, a.bytes * f, a.allocs * f} }

// timeOp measures fn, alone on the machine, for about budget.
func timeOp(budget time.Duration, fn func() error) (opCost, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return opCost{}, err
	}
	once := time.Since(start)
	n := 1
	if once > 0 && int(budget/once) > n {
		n = int(budget / once)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return opCost{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return opCost{
		ns:     float64(elapsed) / float64(n),
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
	}, nil
}

// messageCost is the codec's isolated work on one message: encoding it and
// decoding it again, the way the call path does (decoded values go back to
// the slab pool, envelope buffers to the buffer pool).
type messageCost struct {
	marshal, unmarshal       opCost
	xmlMarshal, xmlUnmarshal opCost // xmlenc alone, inside the soap figures
	wireBytes                float64
}

// add returns a plus f times b.
func (a messageCost) add(b messageCost, f float64) messageCost {
	return messageCost{
		marshal:      a.marshal.plus(b.marshal.times(f)),
		unmarshal:    a.unmarshal.plus(b.unmarshal.times(f)),
		xmlMarshal:   a.xmlMarshal.plus(b.xmlMarshal.times(f)),
		xmlUnmarshal: a.xmlUnmarshal.plus(b.xmlUnmarshal.times(f)),
		wireBytes:    a.wireBytes + b.wireBytes*f,
	}
}

func measureMessage(wire core.WireFormat, budget time.Duration, op string, params []soap.Param) (messageCost, error) {
	var mc messageCost
	var err error
	if wire == core.WireBinary {
		codec := pbio.NewCodec(pbio.NewRegistry(pbio.NewMemServer()))
		for _, p := range params {
			buf, err := codec.Marshal(p.Value)
			if err != nil {
				return mc, err
			}
			mc.wireBytes += float64(len(buf))
			m, err := timeOp(budget, func() error {
				_, err := codec.AppendMarshal(buf[:0], p.Value)
				return err
			})
			if err != nil {
				return mc, err
			}
			u, err := timeOp(budget, func() error {
				v, err := codec.Unmarshal(buf)
				pbio.Release(&v)
				return err
			})
			if err != nil {
				return mc, err
			}
			mc.marshal, mc.unmarshal = mc.marshal.plus(m), mc.unmarshal.plus(u)
		}
		return mc, nil
	}
	msg := &soap.Message{Op: op, Params: params}
	spec := soap.OpSpec{Op: op}
	for _, p := range params {
		spec.Params = append(spec.Params, soap.ParamSpec{Name: p.Name, Type: p.Value.Type})
	}
	env, err := soap.Marshal(msg)
	if err != nil {
		return mc, err
	}
	mc.wireBytes = float64(len(env))
	if mc.marshal, err = timeOp(budget, func() error {
		b, err := soap.Marshal(msg)
		bufpool.Put(b)
		return err
	}); err != nil {
		return mc, err
	}
	if mc.unmarshal, err = timeOp(budget, func() error {
		_, err := soap.Parse(env, spec)
		return err
	}); err != nil {
		return mc, err
	}
	for _, p := range params {
		frag, err := xmlenc.Marshal(p.Name, p.Value)
		if err != nil {
			return mc, err
		}
		m, err := timeOp(budget, func() error {
			_, err := xmlenc.AppendMarshal(frag[:0], p.Name, p.Value)
			return err
		})
		if err != nil {
			return mc, err
		}
		u, err := timeOp(budget, func() error {
			_, err := xmlenc.Unmarshal(frag, p.Name, p.Value.Type)
			return err
		})
		if err != nil {
			return mc, err
		}
		mc.xmlMarshal, mc.xmlUnmarshal = mc.xmlMarshal.plus(m), mc.xmlUnmarshal.plus(u)
	}
	return mc, nil
}

// kindCost is the codec's isolated work on one call: request and reply.
type kindCost struct{ request, reply messageCost }

// perCall is what the two sides of a call spend in the codec.
func (k kindCost) perCall() codecCost {
	return codecCost{
		client: k.request.marshal.ns + k.reply.unmarshal.ns,
		server: k.request.unmarshal.ns + k.reply.marshal.ns,
	}
}

// measureCodec measures every kind and variant the rig's calls can take, in
// the flattened kind*maxVariants+variant order spans carry. Identical
// messages (the request of both variants) are measured once.
func measureCodec(r *rig, budget time.Duration) ([]kindCost, error) {
	out := make([]kindCost, len(r.kinds)*maxVariants)
	for i, k := range r.kinds {
		req, err := measureMessage(r.wire, budget, k.op, k.params)
		if err != nil {
			return nil, fmt.Errorf("codec, %s request: %w", k.op, err)
		}
		for v, rep := range k.replies {
			reply, err := measureMessage(r.wire, budget, k.op+"Response",
				[]soap.Param{{Name: core.ResultParam, Value: rep.value()}})
			if err != nil {
				return nil, fmt.Errorf("codec, %s reply: %w", k.op, err)
			}
			out[i*maxVariants+v] = kindCost{req, reply}
		}
	}
	return out, nil
}

// averageCall is the codec's work on the request and reply of an average
// call: each kind weighted by how many of the calls in seen were of it.
func averageCall(kinds []kindCost, seen []int) messageCost {
	total := 0
	for _, n := range seen {
		total += n
	}
	var avg messageCost
	for i, n := range seen {
		f := float64(n) / float64(total)
		avg = avg.add(kinds[i].request, f).add(kinds[i].reply, f)
	}
	return avg
}
