package inner

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
