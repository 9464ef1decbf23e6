package drive

import (
	"runtime"
	"sync"
)

// Task is one unit of off-thread compute. Fn runs on a pool worker after
// the optional predecessor completes; Done is closed when Fn has
// returned.
type Task struct {
	Prev *Task
	Fn   func()
	Done chan struct{}
}

// Wait blocks until the task has completed. The blocking receive also
// establishes the happens-before edge that lets the caller read the
// task's results race-free.
func (t *Task) Wait() { <-t.Done }

// ClosedChan is a pre-closed done channel for inline-computed tasks.
var ClosedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Pool runs chunk tasks on a fixed set of goroutines. Tasks are executed
// FIFO per worker pull; a task's Prev (if any) is always submitted
// earlier, so the pull order guarantees the predecessor has been picked
// up by some worker (or finished) before the successor runs — chained
// waits cannot deadlock, for any pool size. With one worker (or on a
// single-core host) the pool degenerates to inline mode: Submit runs the
// task on the spot and Wait is free.
//
// Neither driver uses it: both run their kernels inline, because
// measurement showed the per-chunk task overhead outweighed the overlap
// it bought. It remains only because perfbench reports its per-task cost
// (drive.pool_task_ns).
type Pool struct {
	inline bool
	tasks  chan *Task
	wg     sync.WaitGroup
}

// NewPool builds a pool of the given width; workers <= 0 means
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Clamp: the worker count reaches this point from the network-facing
	// job API, and goroutines are a real host resource. Extra workers
	// beyond the core count buy nothing for pure compute; the floor
	// keeps a real pool testable on small hosts.
	if limit := max(4*runtime.GOMAXPROCS(0), 16); workers > limit {
		workers = limit
	}
	if workers <= 1 {
		return &Pool{inline: true}
	}
	p := &Pool{tasks: make(chan *Task, 4096)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				if t.Prev != nil {
					<-t.Prev.Done
					t.Prev = nil
				}
				t.Fn()
				// Drop the closure so the captured inputs (notably a
				// pre-read chunk's bytes) become collectable as soon as
				// the result exists, not when the stream is released.
				t.Fn = nil
				close(t.Done)
			}
		}()
	}
	return p
}

// Inline reports whether the pool runs tasks at submission time (the
// serial degenerate mode).
func (p *Pool) Inline() bool { return p.inline }

// Submit enqueues a task. Submission order is the determinism contract:
// a task must be submitted after its Prev and after any task whose Done
// channel its Fn waits on — which is also why inline execution at submit
// time is always legal.
func (p *Pool) Submit(t *Task) {
	if p.inline {
		t.Done = ClosedChan
		t.Fn()
		t.Fn, t.Prev = nil, nil
		return
	}
	t.Done = make(chan struct{})
	p.tasks <- t
}

// Close drains and stops the workers. All submitted tasks run to
// completion first.
func (p *Pool) Close() {
	if p.inline {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}
