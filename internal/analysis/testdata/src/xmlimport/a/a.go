// Package a is the xmlimport golden fixture: one file imports
// encoding/xml, the other does too under an allow directive.
package a

import (
	"encoding/xml" // want "encoding/xml imported outside a _test.go file"
	"strings"
)

func name(s string) xml.Name { return xml.Name{Local: strings.TrimSpace(s)} }
