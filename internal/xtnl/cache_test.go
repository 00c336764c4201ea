package xtnl

import (
	"fmt"
	"testing"
)

// TestConditionMemoCachesAfterSaturation fills the compiled-condition
// memo past its limit, then requires a condition first seen after that
// point to be cached: a second compile returns the same expression.
func TestConditionMemoCachesAfterSaturation(t *testing.T) {
	for i := 0; i < condCacheLimit; i++ {
		if _, err := compileCondition(fmt.Sprintf("/credential/content/serial = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const src = "/credential/content/serial = 'after-saturation'"
	first, err := compileCondition(src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := compileCondition(src)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("a condition compiled after the memo filled was not cached")
	}
}
