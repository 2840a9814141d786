// Package leakcheck seeds goroutine-leak shapes for the leakcheck analyzer.
package leakcheck

import (
	"sync"
	"sync/atomic"
)

// unjoined launches a worker nothing ever waits for.
func unjoined(work func()) {
	go func() { // want `neither defers a WaitGroup Done\(\) nor signals a channel`
		work()
	}()
}

// trailingDone calls Done without defer: a panic in work leaks the join.
func trailingDone(wg *sync.WaitGroup, work func()) {
	wg.Add(1)
	go func() { // want `neither defers a WaitGroup Done\(\) nor signals a channel`
		work()
		wg.Done()
	}()
	wg.Wait()
}

// noAdd defers Done on a WaitGroup that was never Add-ed before the launch.
func noAdd(work func()) {
	var wg sync.WaitGroup
	go func() { // want `wg.Add is not called before the launch`
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// noWait launches correctly but never joins.
func noWait(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `never calls wg.Wait\(\) after the launch`
		defer wg.Done()
		work()
	}()
}

// earlyReturn abandons the worker on the error path — the early-abort leak.
func earlyReturn(work func(), err error) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	if err != nil {
		return err // want `return between the goroutine launch and the WaitGroup join`
	}
	wg.Wait()
	return nil
}

// unreceivedChannel signals a channel nobody drains.
func unreceivedChannel(work func()) {
	done := make(chan struct{})
	go func() { // want `signals channel done but the launching function never receives`
		defer close(done)
		work()
	}()
}

// opaqueLaunch hides the body behind a method value.
func opaqueLaunch(wg *sync.WaitGroup) {
	go wg.Wait() // want `goroutine launched without a visible join`
}

// joinedByWaitGroup is the sanctioned phase-worker shape.
func joinedByWaitGroup(work []func()) {
	var wg sync.WaitGroup
	for _, fn := range work {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// joinedByLaunchVariable launches one literal, held by a variable assigned
// once, for every worker; each claims its work by an atomic index.
func joinedByLaunchVariable(work []func()) {
	var wg sync.WaitGroup
	var next atomic.Int32
	run := func() {
		defer wg.Done()
		work[next.Add(1)-1]()
	}
	wg.Add(len(work))
	for range work {
		go run()
	}
	wg.Wait()
}

// reassignedLaunchVariable launches a variable that no longer holds the
// joined literal.
func reassignedLaunchVariable(work func()) {
	var wg sync.WaitGroup
	run := func() {
		defer wg.Done()
		work()
	}
	run = work
	wg.Add(1)
	go run() // want `goroutine launches run, which is not assigned exactly once from a function literal`
	wg.Wait()
}

// addressedLaunchVariable launches a variable whose address escapes, so
// any callee may have replaced the literal.
func addressedLaunchVariable(work func(), swap func(*func())) {
	var wg sync.WaitGroup
	run := func() {
		defer wg.Done()
		work()
	}
	swap(&run)
	wg.Add(1)
	go run() // want `goroutine launches run, which is not assigned exactly once`
	wg.Wait()
}

// launchVariableWithoutDone launches a variable whose literal calls Done
// without defer.
func launchVariableWithoutDone(work func()) {
	var wg sync.WaitGroup
	run := func() {
		work()
		wg.Done()
	}
	wg.Add(1)
	go run() // want `neither defers a WaitGroup Done\(\) nor signals a channel`
	wg.Wait()
}

// launchParameter launches a function it was handed: its body is out of
// sight.
func launchParameter(wg *sync.WaitGroup, run func()) {
	wg.Add(1)
	go run() // want `goroutine launched without a visible join`
	wg.Wait()
}

// joinedByClose is the sanctioned channel shape.
func joinedByClose(work func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	<-done
}

// joinedBySend streams results and is drained by range.
func joinedBySend(n int) int {
	out := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			out <- i
		}
		close(out)
	}()
	sum := 0
	for v := range out {
		sum += v
	}
	return sum
}

// justified is joined by machinery the analyzer cannot see.
func justified(work func()) {
	//gammavet:leakcheck joined by the caller's errgroup
	go work()
}
