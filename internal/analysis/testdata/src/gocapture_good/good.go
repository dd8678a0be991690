// Package gocapturegood launches goroutines the way the repository's
// kernels do: guarded fields are locked inside the goroutine that touches
// them, and — since Go 1.22 made loop variables per-iteration — capturing
// an iteration variable or passing its address is fine and must NOT be
// flagged.
package gocapturegood

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// WorkerPool is the fan-out shape of a batch evaluator: workers receive
// indices from a channel; nothing loop-scoped is captured.
func WorkerPool(jobs []int, workers int, out []int) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = jobs[i] * jobs[i]
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ParamPass hands the loop variable to the goroutine as an argument — a
// per-call copy, not a capture.
func ParamPass(jobs []int, out chan<- int) {
	for _, j := range jobs {
		go func(v int) {
			out <- v * v
		}(j)
	}
}

// RangeCapture captures the range variable directly. Per-iteration loop
// variables (Go >= 1.22) make each goroutine see its own j.
func RangeCapture(jobs []int, out chan<- int) {
	for _, j := range jobs {
		go func() {
			out <- j * j
		}()
	}
}

// IndexCapture captures a for-init variable — also per-iteration now.
func IndexCapture(n int, out chan<- int) {
	for i := 0; i < n; i++ {
		go func() {
			out <- i
		}()
	}
}

// AddressEscape passes the address of the loop variable: each iteration's
// variable is distinct, so the pointer is stable for that goroutine.
func AddressEscape(jobs []int, sink func(*int)) {
	for _, j := range jobs {
		go sink(&j)
	}
}

// GuardedTouch locks inside the goroutine that accesses the field.
func GuardedTouch(c *counter) {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}()
}
