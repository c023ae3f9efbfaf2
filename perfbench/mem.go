package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler samples the Go runtime's resident memory — everything it has
// mapped less what it has returned to the OS — every memEvery while a
// phase is measured, so rss_mib describes the memory the workload holds
// while it runs rather than the single worst instant, which depends on
// where the last garbage collection happened to fall.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	mib  []float64
}

const memEvery = 50 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		t := time.NewTicker(memEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
			m.mu.Lock()
			m.mib = append(m.mib, v)
			m.mu.Unlock()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the median sample in MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return median(m.mib)
}
