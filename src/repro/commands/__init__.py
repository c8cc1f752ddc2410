"""The CLI's subcommands: each module declares the arguments of its
subcommands and runs them (``add_command``), and :mod:`repro.cli`
imports only the module of the subcommand a call invokes."""
