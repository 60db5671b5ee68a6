// Package sched is a registryhygiene fixture: a miniature of the fixed
// name->factory policy tables.
package sched

const (
	TIC = "tic"
	TAC = "tac"
)

var policies = []struct {
	name string
	new  func(seed int64) int
}{
	{TIC, func(int64) int { return 1 }},
	{TAC, func(int64) int { return 2 }},
	{"tic", func(int64) int { return 3 }},  // want "duplicated"
	{"TAC2", func(int64) int { return 4 }}, // want "lowercase"
	{"", func(int64) int { return 5 }},     // want "non-empty"
	{name: "Keyed", new: nil},              // want "lowercase"
}

// Names lists the table.
func Names() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.name
	}
	return names
}

// Rows without a func field are not a name table, whatever their names.
var models = []struct{ name string }{
	{"VGG-16"},
	{"VGG-16"},
}
